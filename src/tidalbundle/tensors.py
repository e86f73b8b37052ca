"""Phase points, norms and causal signs on a 4d Lorentzian manifold.

Signature convention is (-,+,+,+).  A fiber vector's squared length is
kept positive; its causal character rides along as a separate sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NonFiniteFiberError, NullFiberError
from .jets import einsum

DIM = 4

# numpy's LAPACK kernels, bound once.  np.linalg.inv, det and eigh check
# and cast their operand, then call these gufuncs under an errstate that
# turns a singular matrix (or an eigensolver that does not converge) into
# LinAlgError.  On a float64 4x4 those checks cost more than the kernel, so
# inv and eigh here call it under the same errstate, and det, which sets
# none, is the gufunc itself: the same bits without the wrapper.  Every
# linear-algebra call in the package goes through them.  numpy's own linalg
# module imports the gufuncs from numpy.linalg on both numpy 1.x and 2.x.
det = _umath_linalg.det


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _no_convergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def inv(a):
    """np.linalg.inv of a float64 matrix, through its kernel."""
    with np.errstate(call=_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.inv(a, signature="d->d")


def eigh(a):
    """np.linalg.eigh of a float64 symmetric matrix, through its kernel:
    (eigenvalues in ascending order, eigenvectors as columns)."""
    with np.errstate(call=_no_convergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.eigh_lo(a, signature="d->dd")


def _as_vector(values):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (DIM,):
        raise ValueError(f"expected shape {(DIM,)}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor components must be finite")
    return arr


def null_tolerance(y):
    """Default threshold below which |g(y,y)| counts as null: inf, with
    no overflow warning, where max|y|^2 passes the float range."""
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        return 1e-12 * max(np.abs(y).max() ** 2, 1e-300)


def norm_and_sign(g, y, tol=None):
    """Positive norm and causal sign of a fiber vector.

    Returns (sqrt(|g_ij y^i y^j|), sign(g_ij y^i y^j)).  The squared length
    is kept positive; the causal character rides along as a separate sign,
    -1 timelike, +1 spacelike.  Raises NullFiberError near the light cone.
    With the default tol it raises NonFiniteFiberError where g(y,y) is not
    finite; an explicit tol (the integrators' trial stages pass 0) skips
    that, and a NaN g(y,y) then takes the sign -1, on which every output
    of the stage is NaN, so the step control rejects it.
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
    return math.sqrt(abs(q)), -1 if math.isnan(q) else int(np.sign(q))


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
