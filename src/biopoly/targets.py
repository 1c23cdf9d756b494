"""Built-in target functions for the demo scenarios and the test suite.

Each target stresses a different part of the fitting machinery: the
chirp needs a high order before its oscillation resolves, the decay
and gamma-density targets have exact rational moments (so fits of them
isolate truncation from quadrature), and the damped wiggle is the
order-36 case whose Gram matrix is numerically singular for the naive
solver.
"""

from __future__ import annotations

import numpy as np

__all__ = ["chirp", "exp_decay", "gamma_density", "damped_wiggle"]


def chirp(x):
    """cos(7 pi x^2): frequency rises with x, ~7 half-cycles on [0, 1]."""
    x = np.asarray(x, dtype=float)
    return np.cos(7.0 * np.pi * x * x)


def exp_decay(x):
    """e^{-x}, whose moments ``moments_expdecay`` gives in closed form."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x)


def gamma_density(x):
    """x e^{-x}, the Gamma(2, 1) probability density."""
    x = np.asarray(x, dtype=float)
    return x * np.exp(-x)


def damped_wiggle(x):
    """(1 - x^2) e^{-x} sin(8 pi x): eight full oscillations, zero at +-1."""
    x = np.asarray(x, dtype=float)
    return (1.0 - x * x) * np.exp(-x) * np.sin(8.0 * np.pi * x)
