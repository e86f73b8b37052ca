"""Phase points, norms and causal signs on a 4d Lorentzian manifold.

Signature convention is (-,+,+,+).  A fiber vector's squared length is
kept positive; its causal character rides along as a separate sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteFiberError, NullFiberError
from .jets import einsum

DIM = 4


def _as_vector(values):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (DIM,):
        raise ValueError(f"expected shape {(DIM,)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor components must be finite")
    return arr


def null_tolerance(y):
    """Default threshold below which |g(y,y)| counts as null: inf, with
    no overflow warning, where max|y|^2 passes the float range."""
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        return 1e-12 * max(np.max(np.abs(y)) ** 2, 1e-300)


def norm_and_sign(g, y, tol=None):
    """Positive norm and causal sign of a fiber vector.

    Returns (sqrt(|g_ij y^i y^j|), sign(g_ij y^i y^j)).  The squared length
    is kept positive; the causal character rides along as a separate sign,
    -1 timelike, +1 spacelike.  Raises NullFiberError near the light cone.
    With the default tol it raises NonFiniteFiberError where g(y,y) is not
    finite; an explicit tol (the integrators' trial stages pass 0) skips
    that.
    """
    g = np.asarray(g, dtype=float)
    y = np.asarray(y, dtype=float)
    q = float(einsum("ij,i,j->", g, y, y))
    if tol is None:
        if not math.isfinite(q):
            raise NonFiniteFiberError(f"g(y,y) = {q} is not finite")
        tol = null_tolerance(y)
    if abs(q) < tol:
        raise NullFiberError(f"|g(y,y)| = {abs(q):.3e} below null tolerance {tol:.3e}")
    return float(np.sqrt(abs(q))), int(np.sign(q))


@dataclass(frozen=True)
class PhasePoint:
    """Base point plus non-null fiber vector, with cached norm data."""

    x: np.ndarray
    y: np.ndarray
    norm: float
    causal_sign: int

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x))
        object.__setattr__(self, "y", _as_vector(self.y))

    @classmethod
    def create(cls, g, x, y):
        """The point (x, y) under metric components g; a y that is null
        or whose g(y,y) is not finite is refused (see norm_and_sign)."""
        y = _as_vector(y)  # before norm_and_sign, which cannot take a NaN
        nrm, eps = norm_and_sign(g, y)
        return cls(x, y, nrm, eps)
