"""Biorthogonal polynomial sequences for matrix-inversion-free regression.

The package constructs, in exact rational arithmetic, the polynomials
biorthogonal to the monomials inside the span of a classical orthonormal
family, and uses them to do least-squares polynomial fitting from moment
data without ever assembling or inverting a Gram matrix.  A deliberately
naive normal-equations solver is included as a foil.

Each name below is read from its submodule on first access (PEP 562), so
``import biopoly`` loads no submodule, and numpy loads with the first one
that computes floats: ``regress``, ``baseline``, or an evaluation.  The
exact layer (``exact``, ``families``, ``biorth``) runs without numpy.
"""

import importlib

_EXPORTS = {
    "exact": ["ExactPoly", "FloatRangeError", "ScaleMismatchError", "ScaleTag",
              "SpaceSpec", "Weight", "inner_monomial", "inner_poly"],
    "families": ["FamilyKind", "FamilySpec", "norm_sq", "rat_coeff",
                 "verify_orthonormal"],
    "biorth": ["BiorthSet", "FitModel", "LastElementError",
               "MomentShortfallError", "MomentSpaceError", "MomentVector",
               "NotActiveError", "build", "downgrade", "fit", "project",
               "select_removal", "upgrade"],
    "regress": ["EvenPanelParityError", "NonUniformGridError", "SampleSet",
                "UnsupportedSpaceError", "bic_score", "error_figures",
                "l2_error", "max_abs_error", "moments_expdecay",
                "moments_from_samples", "moments_gamma", "moments_quadrature",
                "rms_error"],
    "baseline": ["SingularToWorkingPrecision", "condition_estimate",
                 "determinant", "gram", "solve_normal_equations"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
