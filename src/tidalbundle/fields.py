"""Metric and 4-potential catalog with exact derivatives.

Every catalog field ships closed-form component derivatives up to second
order, packed with the derivative axes leading:

    dg[k, i, j]      = d g_ij / dx^k
    d2g[l, k, i, j]  = d^2 g_ij / dx^l dx^k
    dA[k, i]         = d A_i / dx^k
    d2A[l, k, i]     = d^2 A_i / dx^l dx^k

The packs derive the rest on first read and keep it: MetricPack the
inverse metric, its derivative and the Christoffel symbols with theirs,
PotentialPack the field strength and its derivative.  So each is computed
at most once per pack, and only if something reads it.

Units: geometrized Gaussian, c = G = k_Coulomb = 1.  Charges and field
strengths carry the same mass units as M.  Spherical charts use
(t, r, theta, phi); flat charts use (t, x, y, z).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartDomainError
from .jets import Jet

DIM = 4
SIN_THETA_FLOOR = 1e-8


@dataclass(frozen=True)
class MetricPack:
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray

    @cached_property
    def ginv(self):
        return np.linalg.inv(self.g)

    @cached_property
    def dginv(self):
        return -np.einsum("ia,mab,bl->mil", self.ginv, self.dg, self.ginv)

    @cached_property
    def _lowered_gamma(self):
        """S[l,j,k] = d_j g_lk + d_k g_lj - d_l g_jk, twice gamma_ljk."""
        dg = self.dg
        return np.einsum("jlk->ljk", dg) + np.einsum("klj->ljk", dg) - dg

    @cached_property
    def gamma(self):
        """Levi-Civita coefficients gamma^i_jk."""
        return 0.5 * np.einsum("il,ljk->ijk", self.ginv, self._lowered_gamma)

    @cached_property
    def dgamma(self):
        """dgamma[m,i,j,k], the x^m partial of gamma^i_jk."""
        d2g = self.d2g
        dS = (np.einsum("mjlk->mljk", d2g) + np.einsum("mklj->mljk", d2g)
              - np.einsum("mljk->mljk", d2g))
        return (0.5 * np.einsum("mil,ljk->mijk", self.dginv, self._lowered_gamma)
                + 0.5 * np.einsum("il,mljk->mijk", self.ginv, dS))


@dataclass(frozen=True)
class PotentialPack:
    A: np.ndarray
    dA: np.ndarray
    d2A: np.ndarray

    @cached_property
    def F(self):
        """Field strength F_ij = d_i A_j - d_j A_i."""
        return self.dA - self.dA.T

    @cached_property
    def dF(self):
        return self.d2A - np.einsum("kij->kji", self.d2A)


class MetricField:
    """Metric with guard and closed-form derivative evaluation."""

    def __init__(self, name, params, coords, coord_names, pack_fn, margins_fn, is_flat):
        self.name = name
        self.params = dict(params)
        self.coords = coords
        self.coord_names = coord_names
        self._pack_fn = pack_fn
        self._margins_fn = margins_fn
        self.is_flat = is_flat

    def guard_margins(self, x):
        """Scalars that are positive strictly inside the chart."""
        return self._margins_fn(np.asarray(x, dtype=float))

    def guard_ok(self, x):
        return bool(np.all(self.guard_margins(x) > 0.0))

    def check_chart(self, x):
        if not np.all(np.isfinite(x)):
            raise ChartDomainError(f"non-finite base point {x!r}")
        if not self.guard_ok(x):
            raise ChartDomainError(
                f"point {np.asarray(x).tolist()} outside chart of metric {self.name!r}"
            )

    def pack(self, x, check=True) -> MetricPack:
        """Evaluate g with derivatives; check=False skips the chart guard.

        Unguarded evaluation exists for adaptive integrators whose trial
        steps may probe slightly past the boundary the guard protects.
        """
        x = np.asarray(x, dtype=float)
        if check:
            self.check_chart(x)
        pack = self._pack_fn(x)
        if check and abs(np.linalg.det(pack.g)) < 1e-10:
            raise ChartDomainError(f"metric degenerate at {x.tolist()}")
        return pack


class PotentialField:
    """4-potential with guard and closed-form derivative evaluation."""

    def __init__(self, name, params, coords, pack_fn, margins_fn):
        self.name = name
        self.params = dict(params)
        self.coords = coords
        self._pack_fn = pack_fn
        self._margins_fn = margins_fn

    def guard_margins(self, x):
        return self._margins_fn(np.asarray(x, dtype=float))

    def guard_ok(self, x):
        return bool(np.all(self.guard_margins(x) > 0.0))

    def check_chart(self, x):
        if not self.guard_ok(x):
            raise ChartDomainError(
                f"point {np.asarray(x).tolist()} outside domain of potential {self.name!r}"
            )

    def pack(self, x, check=True) -> PotentialPack:
        x = np.asarray(x, dtype=float)
        if check:
            self.check_chart(x)
        return self._pack_fn(x)


# ---------------------------------------------------------------------------
# metric catalog


def _spherical_pack(x, f, df, d2f):
    """diag(-f, 1/f, r^2, r^2 sin^2 th) for a radial profile f(r)."""
    r, th = x[1], x[2]
    s, c = np.sin(th), np.cos(th)
    g = np.diag([-f, 1.0 / f, r * r, r * r * s * s])

    dg = np.zeros((DIM, DIM, DIM))
    dg[1, 0, 0] = -df
    dg[1, 1, 1] = -df / f ** 2
    dg[1, 2, 2] = 2.0 * r
    dg[1, 3, 3] = 2.0 * r * s * s
    dg[2, 3, 3] = 2.0 * r * r * s * c

    d2g = np.zeros((DIM, DIM, DIM, DIM))
    d2g[1, 1, 0, 0] = -d2f
    d2g[1, 1, 1, 1] = -d2f / f ** 2 + 2.0 * df ** 2 / f ** 3
    d2g[1, 1, 2, 2] = 2.0
    d2g[1, 1, 3, 3] = 2.0 * s * s
    d2g[1, 2, 3, 3] = d2g[2, 1, 3, 3] = 4.0 * r * s * c
    d2g[2, 2, 3, 3] = 2.0 * r * r * (c * c - s * s)
    return MetricPack(g, dg, d2g)


def _spherical_margins(x, r_min):
    return np.array([x[1] - r_min, np.sin(x[2]) - SIN_THETA_FLOOR])


# name -> (parameter names, one-line description), consumed by the CLI listing
METRIC_CATALOG = {
    "minkowski": (("coordinates",), "flat spacetime, cartesian or spherical chart"),
    "schwarzschild": (("M",), "vacuum black hole of mass M"),
    "reissner_nordstrom": (("M", "Q", "allow_naked"), "charged black hole, mass M and charge Q"),
}

POTENTIAL_CATALOG = {
    "zero": ((), "no electromagnetic field"),
    "uniform_b": (("B", "axis"), "constant magnetic field along a spatial axis"),
    "uniform_e": (("E", "axis"), "constant electric field along a spatial axis"),
    "coulomb": (("Q",), "point charge Q at the origin (spherical chart)"),
    "pure_gauge": (("c",), "closed 1-form, zero field strength"),
}


def builtin_metric(name, params=None) -> MetricField:
    """Catalog lookup: minkowski, schwarzschild(M), reissner_nordstrom(M, Q)."""
    params = dict(params or {})
    if name == "minkowski":
        coords = params.pop("coordinates", "cartesian")
        if params:
            raise ValueError(f"unexpected minkowski params {sorted(params)}")
        if coords == "cartesian":
            eta = np.diag([-1.0, 1.0, 1.0, 1.0])
            zero3 = np.zeros((DIM, DIM, DIM))
            zero4 = np.zeros((DIM, DIM, DIM, DIM))
            return MetricField(
                name, {"coordinates": coords}, "cartesian", ("t", "x", "y", "z"),
                lambda x: MetricPack(eta, zero3, zero4),
                lambda x: np.array([1.0]),
                is_flat=True,
            )
        if coords == "spherical":
            return MetricField(
                name, {"coordinates": coords}, "spherical",
                ("t", "r", "theta", "phi"),
                lambda x: _spherical_pack(x, 1.0, 0.0, 0.0),
                lambda x: _spherical_margins(x, 1e-8),
                is_flat=True,
            )
        raise ValueError(f"unknown minkowski coordinates {coords!r}")

    if name == "schwarzschild":
        M = float(params.pop("M"))
        if params:
            raise ValueError(f"unexpected schwarzschild params {sorted(params)}")
        if M <= 0:
            raise ValueError("schwarzschild requires M > 0")
        r_min = 2.0 * M * (1.0 + 1e-6)

        def pack(x, M=M):
            r = x[1]
            f = 1.0 - 2.0 * M / r
            return _spherical_pack(x, f, 2.0 * M / r ** 2, -4.0 * M / r ** 3)

        return MetricField(
            name, {"M": M}, "spherical", ("t", "r", "theta", "phi"),
            pack, lambda x: _spherical_margins(x, r_min), is_flat=False,
        )

    if name == "reissner_nordstrom":
        M = float(params.pop("M"))
        Q = float(params.pop("Q"))
        allow_naked = bool(params.pop("allow_naked", False))
        if params:
            raise ValueError(f"unexpected reissner_nordstrom params {sorted(params)}")
        if M <= 0:
            raise ValueError("reissner_nordstrom requires M > 0")
        if Q * Q > M * M and not allow_naked:
            raise ValueError("reissner_nordstrom requires Q^2 <= M^2 (set allow_naked to override)")
        if Q * Q <= M * M:
            r_min = (M + np.sqrt(M * M - Q * Q)) * (1.0 + 1e-6)
        else:
            r_min = 1e-6 * M

        def pack(x, M=M, Q=Q):
            r = x[1]
            f = 1.0 - 2.0 * M / r + Q * Q / r ** 2
            df = 2.0 * M / r ** 2 - 2.0 * Q * Q / r ** 3
            d2f = -4.0 * M / r ** 3 + 6.0 * Q * Q / r ** 4
            return _spherical_pack(x, f, df, d2f)

        return MetricField(
            name, {"M": M, "Q": Q}, "spherical", ("t", "r", "theta", "phi"),
            pack, lambda x: _spherical_margins(x, r_min), is_flat=False,
        )

    raise ValueError(f"unknown metric {name!r}")


# ---------------------------------------------------------------------------
# potential catalog

_AXIS_INDEX = {"x": 1, "y": 2, "z": 3}
# A = B * x^a dx^b puts the magnetic field along the remaining axis
_B_COMPONENTS = {"z": (1, 2), "x": (2, 3), "y": (3, 1)}


def builtin_potential(name, params=None) -> PotentialField:
    """Catalog lookup: zero, uniform_b(B, axis), uniform_e(E, axis), coulomb(Q), pure_gauge(c)."""
    params = dict(params or {})
    zero1 = np.zeros(DIM)
    zero2 = np.zeros((DIM, DIM))
    zero3 = np.zeros((DIM, DIM, DIM))
    always = lambda x: np.array([1.0])

    if name == "zero":
        if params:
            raise ValueError("zero potential takes no params")
        return PotentialField(
            name, {}, "any", lambda x: PotentialPack(zero1, zero2, zero3), always
        )

    if name == "uniform_b":
        B = float(params.pop("B"))
        axis = params.pop("axis", "z")
        if params:
            raise ValueError(f"unexpected uniform_b params {sorted(params)}")
        if axis not in _B_COMPONENTS:
            raise ValueError(f"uniform_b axis must be x, y, or z, got {axis!r}")
        a, b = _B_COMPONENTS[axis]

        def pack(x, B=B, a=a, b=b):
            A = np.zeros(DIM)
            A[b] = B * x[a]
            dA = np.zeros((DIM, DIM))
            dA[a, b] = B
            return PotentialPack(A, dA, zero3)

        return PotentialField(name, {"B": B, "axis": axis}, "cartesian", pack, always)

    if name == "uniform_e":
        E = float(params.pop("E"))
        axis = params.pop("axis", "x")
        if params:
            raise ValueError(f"unexpected uniform_e params {sorted(params)}")
        if axis not in _AXIS_INDEX:
            raise ValueError(f"uniform_e axis must be x, y, or z, got {axis!r}")
        k = _AXIS_INDEX[axis]

        def pack(x, E=E, k=k):
            A = np.zeros(DIM)
            A[0] = -E * x[k]
            dA = np.zeros((DIM, DIM))
            dA[k, 0] = -E
            return PotentialPack(A, dA, zero3)

        return PotentialField(name, {"E": E, "axis": axis}, "cartesian", pack, always)

    if name == "coulomb":
        Q = float(params.pop("Q"))
        if params:
            raise ValueError(f"unexpected coulomb params {sorted(params)}")
        r_min = 1e-6 * max(abs(Q), 1.0)

        def pack(x, Q=Q):
            r = x[1]
            A = np.zeros(DIM)
            A[0] = Q / r
            dA = np.zeros((DIM, DIM))
            dA[1, 0] = -Q / r ** 2
            d2A = np.zeros((DIM, DIM, DIM))
            d2A[1, 1, 0] = 2.0 * Q / r ** 3
            return PotentialPack(A, dA, d2A)

        return PotentialField(
            name, {"Q": Q}, "spherical", pack,
            lambda x: np.array([x[1] - r_min]),
        )

    if name == "pure_gauge":
        c = float(params.pop("c"))
        if params:
            raise ValueError(f"unexpected pure_gauge params {sorted(params)}")

        def pack(x, c=c):
            A = np.zeros(DIM)
            A[1] = c * x[2]
            A[2] = c * x[1]
            dA = np.zeros((DIM, DIM))
            dA[2, 1] = c
            dA[1, 2] = c
            return PotentialPack(A, dA, zero3)

        return PotentialField(name, {"c": c}, "cartesian", pack, always)

    raise ValueError(f"unknown potential {name!r}")


def coords_compatible(metric: MetricField, potential: PotentialField) -> bool:
    return potential.coords == "any" or potential.coords == metric.coords


# ---------------------------------------------------------------------------
# generic evaluator for user-defined fields


def metric_from_callable(fn, name="custom", coords="cartesian",
                         coord_names=("x0", "x1", "x2", "x3"),
                         margins_fn=None, is_flat=False) -> MetricField:
    """Build a MetricField from a jet-evaluable callable x -> g_ij.

    The callable receives the base point with infinitesimal components
    seeded in all 4 directions and must use jet-safe arithmetic, so the
    derivative packs come out exact.
    """
    def pack(x):
        G = fn(Jet.seed(x, DIM))
        return MetricPack(G.v, G.d, G.h)

    return MetricField(name, {}, coords, coord_names, pack,
                       margins_fn or (lambda x: np.array([1.0])), is_flat)


def potential_from_callable(fn, name="custom", coords="cartesian",
                            margins_fn=None) -> PotentialField:
    """Build a PotentialField from a jet-evaluable callable x -> A_i."""
    def pack(x):
        A = fn(Jet.seed(x, DIM))
        return PotentialPack(A.v, A.d, A.h)

    return PotentialField(name, {}, coords, pack,
                          margins_fn or (lambda x: np.array([1.0])))


# ---------------------------------------------------------------------------
# derived quantities


def _metric_pack(metric, x):
    if isinstance(metric, MetricField):
        return metric.pack(x)
    return metric


def _potential_pack(potential, x):
    if isinstance(potential, PotentialField):
        return potential.pack(x)
    return potential


def christoffel(metric, x=None):
    """Levi-Civita coefficients gamma^i_jk and their base derivatives.

    Accepts a MetricField with a point, or a prebuilt MetricPack.
    Returns (gamma[i,j,k], dgamma[m,i,j,k]) with dgamma the x^m partial.
    """
    pack = _metric_pack(metric, x)
    return pack.gamma, pack.dgamma


def faraday(potential, x=None):
    """Field strength F_ij = d_i A_j - d_j A_i and its base derivatives."""
    pack = _potential_pack(potential, x)
    return pack.F, pack.dF


def base_riemann(metric, x=None):
    """Curvature of the Levi-Civita connection and its trace.

    riem[i,j,k,l] = d_l gamma^i_jk - d_k gamma^i_jl
                    + gamma^h_jk gamma^i_hl - gamma^h_jl gamma^i_hk,
    antisymmetric in the last pair.  The trace pairs the upper slot with
    the last lower slot, ricci[j,k] = riem[i,j,k,i], which is the sign
    that makes a charged exterior satisfy ricci = 8 pi T_em.
    """
    return _riemann(*christoffel(_metric_pack(metric, x)))


def _riemann(gamma, dgamma):
    """base_riemann from prebuilt Christoffel symbols and their derivatives."""
    riem = (np.einsum("lijk->ijkl", dgamma) - np.einsum("kijl->ijkl", dgamma)
            + np.einsum("hjk,ihl->ijkl", gamma, gamma)
            - np.einsum("hjl,ihk->ijkl", gamma, gamma))
    ricci = np.einsum("ijki->jk", riem)
    return riem, ricci


def gravity_tidal(metric, y, x=None):
    """Classical tidal tensor e^i_j = riem[i,a,j,b] y^a y^b of the base metric."""
    riem, _ = base_riemann(_metric_pack(metric, x))
    return np.einsum("iajb,a,b->ij", riem, y, y)


def current(potential, metric, x=None):
    """Source 4-current J^i = (1/4 pi) nabla_j F^{ji}.

    Accepts fields with a point, or prebuilt packs.
    """
    mp, pp = _metric_pack(metric, x), _potential_pack(potential, x)
    ginv, dginv, gamma, F, dF = mp.ginv, mp.dginv, mp.gamma, pp.F, pp.dF
    Fup = ginv @ F @ ginv
    dFup = (np.einsum("mac,cd,bd->mab", dginv, F, ginv)
            + np.einsum("ac,mcd,bd->mab", ginv, dF, ginv)
            + np.einsum("ac,cd,mbd->mab", ginv, F, dginv))
    divF = (np.einsum("jja->a", dFup)
            + np.einsum("jbj,ba->a", gamma, Fup)
            + np.einsum("abj,jb->a", gamma, Fup))
    return divF / (4.0 * np.pi)


def stress_energy_em(F, g) -> np.ndarray:
    """Electromagnetic stress-energy T_ij = (1/4pi)(F_ia F_j^a - g_ij F^2/4).

    Sign fixed so the energy density T(u,u) of a magnetic field is positive
    in the (-,+,+,+) signature; the charged exterior solution then satisfies
    ricci_ij = 8 pi T_ij exactly.
    """
    g = np.asarray(g, dtype=float)
    return _stress_energy_em(F, g, np.linalg.inv(g))


def _stress_energy_em(F, g, ginv):
    """stress_energy_em with a prebuilt inverse metric."""
    F = np.asarray(F, dtype=float)
    term = np.einsum("ia,ab,jb->ij", F, ginv, F)
    scalar = np.einsum("ab,ab->", F, ginv @ F @ ginv)
    return (term - 0.25 * g * scalar) / (4.0 * np.pi)
