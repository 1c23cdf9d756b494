"""Biorthogonal polynomial sequences for matrix-inversion-free regression.

The package constructs, in exact rational arithmetic, the polynomials
biorthogonal to the monomials inside the span of a classical orthonormal
family, and uses them to do least-squares polynomial fitting from moment
data without ever assembling or inverting a Gram matrix.  A deliberately
naive normal-equations solver is included as a foil.
"""

from .exact import (ExactPoly, FloatRangeError, ScaleMismatchError, ScaleTag,
                    SpaceSpec, Weight, inner_monomial, inner_poly)
from .families import (FamilyKind, FamilySpec, norm_sq, rat_coeff,
                       verify_orthonormal)
from .biorth import (BiorthSet, LastElementError, MomentSpaceError,
                     NotActiveError, build, downgrade, project,
                     select_removal, upgrade)
from .regress import (EvenPanelParityError, FitModel, MomentShortfallError,
                      MomentVector, NonUniformGridError, SampleSet,
                      UnsupportedSpaceError, bic_score, error_figures, fit,
                      l2_error, max_abs_error, moments_expdecay,
                      moments_from_samples, moments_gamma, moments_quadrature,
                      rms_error)
from .baseline import (SingularToWorkingPrecision, condition_estimate,
                       determinant, gram, solve_normal_equations)

__version__ = "0.1.0"
