"""Metric and 4-potential catalog with exact derivatives.

Every catalog field ships closed-form component derivatives up to second
order, packed with the derivative axes leading:

    dg[k, i, j]      = d g_ij / dx^k
    d2g[l, k, i, j]  = d^2 g_ij / dx^l dx^k
    dA[k, i]         = d A_i / dx^k
    d2A[l, k, i]     = d^2 A_i / dx^l dx^k

A potential pack holds dA and d2A only, not A: the engine reads the
potential only through F = dA and dF, so the packs are gauge-free.  The
packs derive the rest on first read and keep it: MetricPack the inverse
metric, its derivative, the Christoffel symbols with theirs and the
Riemann and Ricci tensors, PotentialPack the field strength and its
derivative.  So each is computed at most once per pack, and only if
something reads it.

A catalog field whose pack does not depend on the point (Minkowski in
its Cartesian chart, the zero potential and the potentials linear in x:
uniform_b, uniform_e, pure_gauge) builds that pack once, with the field,
and every pack(x) returns the same object.  Its derived tensors are read
at build, so they too are computed once per field, and every array it
holds is read-only: an in-place write raises instead of reaching every
later point.  pack(x, check=True) still guards the point.  Such a pack
also reports, in zeros, which of its data are exactly zero, and so zero
everywhere: "dg" (with d2g: a flat connection, so gamma and every base
derivative of g vanish), "d2A" (a uniform field: dF vanishes) and "F"
(no field).  Callable fields, whose packs depend on the point, report
none.  The frame reads these facts, and the fiber tiers skip the terms
they make zero (see connection.FiberParts): a flat connection and a
uniform field shorten the curvature of N, and with no field no tier
contracts F at all, so the connection is the Levi-Civita one at its own
cost.

Units: geometrized Gaussian, c = G = k_Coulomb = 1.  Charges and field
strengths carry the same mass units as M.  A metric's coord_names follow
its chart: (t, r, theta, phi), (t, x, y, z), else x0 to x3.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError
from .jets import Jet, einsum
from .tensors import DIM, det, inv

SIN_THETA_FLOOR = 1e-8
_COORD_NAMES = {"cartesian": ("t", "x", "y", "z"),
               "spherical": ("t", "r", "theta", "phi")}


class cached_property:
    """A read-once attribute: the first read stores the value in the
    instance __dict__, which then answers every later read.

    functools.cached_property does the same, but on Python 3.10 and 3.11
    every first read takes a lock that all instances of the class share,
    a cost each pack, frame and fiber tier pays per attribute it derives.
    This one takes no lock: two threads racing on a first read may both
    compute the value, and either store is the same value.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


# each name a constant pack may report in zeros, with its zero arrays
_ZERO_FACTS = {"dg": ("dg", "d2g"), "d2A": ("d2A",), "F": ("F",)}


def _constant(pack):
    """The pack function of a field whose pack does not depend on x.

    Every derived tensor of pack is read here, once, and every array it
    holds is made read-only, since all points share them.  Its zeros are
    recorded too.
    """
    for name, attr in vars(type(pack)).items():
        if isinstance(attr, cached_property):
            getattr(pack, name)
    arrays = vars(pack)
    for array in arrays.values():
        array.flags.writeable = False
    object.__setattr__(pack, "zeros", frozenset(
        fact for fact, names in _ZERO_FACTS.items()
        if all(n in arrays and not arrays[n].any() for n in names)))
    return lambda x: pack


@dataclass(frozen=True)
class MetricPack:
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    zeros = frozenset()  # none, unless _constant records a constant pack's

    @cached_property
    def ginv(self):
        return inv(self.g)

    @cached_property
    def dginv(self):
        return -einsum("ia,mab,bl->mil", self.ginv, self.dg, self.ginv)

    @cached_property
    def _lowered_gamma(self):
        """S[l,j,k] = d_j g_lk + d_k g_lj - d_l g_jk, twice gamma_ljk."""
        dg = self.dg
        return einsum("jlk->ljk", dg) + einsum("klj->ljk", dg) - dg

    @cached_property
    def gamma(self):
        """Levi-Civita coefficients gamma^i_jk."""
        return 0.5 * einsum("il,ljk->ijk", self.ginv, self._lowered_gamma)

    @cached_property
    def dgamma(self):
        """dgamma[m,i,j,k], the x^m partial of gamma^i_jk."""
        d2g = self.d2g
        dS = einsum("mjlk->mljk", d2g) + einsum("mklj->mljk", d2g) - d2g
        return (0.5 * einsum("mil,ljk->mijk", self.dginv, self._lowered_gamma)
                + 0.5 * einsum("il,mljk->mijk", self.ginv, dS))

    @cached_property
    def riemann(self):
        """Levi-Civita curvature riem[i,j,k,l] = d_l gamma^i_jk
        - d_k gamma^i_jl + gamma^h_jk gamma^i_hl - gamma^h_jl gamma^i_hk,
        antisymmetric in the last pair."""
        gamma, dgamma = self.gamma, self.dgamma
        return (einsum("lijk->ijkl", dgamma) - einsum("kijl->ijkl", dgamma)
                + einsum("hjk,ihl->ijkl", gamma, gamma)
                - einsum("hjl,ihk->ijkl", gamma, gamma))

    @cached_property
    def ricci(self):
        """The trace pairing the upper slot with the last lower slot,
        ricci[j,k] = riem[i,j,k,i]: the sign that makes a charged exterior
        satisfy ricci = 8 pi T_em."""
        return einsum("ijki->jk", self.riemann)


@dataclass(frozen=True)
class PotentialPack:
    """dA and d2A of a 4-potential at a point, gauge-free: A is never
    read, so a potential linear in x has one pack at every point."""

    dA: np.ndarray
    d2A: np.ndarray
    zeros = frozenset()

    @cached_property
    def F(self):
        """Field strength F_ij = d_i A_j - d_j A_i."""
        return self.dA - self.dA.T

    @cached_property
    def dF(self):
        return self.d2A - einsum("kij->kji", self.d2A)


def _everywhere(x):
    """Guard margins of a field defined on its whole chart."""
    return np.array([1.0])


class _GuardedField:
    """A field on one chart: its pack function and the chart's guard,
    everywhere if margins_fn is None."""

    def __init__(self, name, params, coords, pack_fn, margins_fn=None):
        self.name = name
        self.params = dict(params)
        self.coords = coords
        self._pack_fn = pack_fn
        self._margins_fn = margins_fn or _everywhere

    def guard_margins(self, x):
        """Scalars that are positive strictly inside the chart."""
        return self._margins_fn(np.asarray(x, dtype=float))

    def guard_ok(self, x):
        return bool((self.guard_margins(x) > 0.0).all())

    def check_chart(self, x):
        if not self.guard_ok(x):
            raise ChartDomainError(f"point {np.asarray(x).tolist()} outside "
                                   f"{self._domain} {self.name!r}")

    def _evaluate(self, x, check):
        x = np.asarray(x, dtype=float)
        if check:
            self.check_chart(x)
        return self._pack_fn(x)


class MetricField(_GuardedField):
    """Metric with guard and closed-form derivative evaluation."""

    _domain = "chart of metric"

    def __init__(self, name, params, coords, pack_fn, margins_fn=None,
                 is_flat=False):
        super().__init__(name, params, coords, pack_fn, margins_fn)
        self.is_flat = is_flat

    @property
    def coord_names(self):
        return _COORD_NAMES.get(self.coords, ("x0", "x1", "x2", "x3"))

    def check_chart(self, x):
        if not np.isfinite(x).all():
            raise ChartDomainError(f"non-finite base point {x!r}")
        super().check_chart(x)

    def pack(self, x, check=True) -> MetricPack:
        """Evaluate g with derivatives; check=False skips the chart guard.

        Unguarded evaluation exists for adaptive integrators whose trial
        steps may probe slightly past the boundary the guard protects.
        """
        pack = self._evaluate(x, check)
        if check and abs(det(pack.g)) < 1e-10:
            raise ChartDomainError(
                f"metric degenerate at {np.asarray(x, dtype=float).tolist()}")
        return pack


class PotentialField(_GuardedField):
    """4-potential with guard and closed-form derivative evaluation."""

    _domain = "domain of potential"

    def pack(self, x, check=True) -> PotentialPack:
        return self._evaluate(x, check)


# ---------------------------------------------------------------------------
# metric catalog


def _radial(build):
    """The pack function x -> build(r, theta) of a field on the spherical
    chart.

    build runs on Python floats, whose arithmetic costs a fraction of
    numpy scalars' and gives the same bits, but for the sign of a NaN,
    which Python's does not fix.  Where it raises instead (a power past
    the float range, a division by zero: points the chart guard refuses,
    which an integrator's trial stage may still probe), it runs again on
    the numpy scalars x[1] and x[2], which give inf or NaN there, with
    numpy's warning.
    """
    def pack(x):
        try:
            return build(float(x[1]), float(x[2]))
        except (ZeroDivisionError, OverflowError):
            return build(x[1], x[2])
    return pack


def _spherical_pack(r, th, f, df, d2f):
    """diag(-f, 1/f, r^2, r^2 sin^2 th) for a radial profile f(r)."""
    s, c = float(np.sin(th)), float(np.cos(th))
    g = np.zeros((DIM, DIM))
    g[0, 0], g[1, 1], g[2, 2], g[3, 3] = -f, 1.0 / f, r * r, r * r * s * s

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


# name -> (parameter names, one-line description): the one list of each
# field's parameters, read by builtin_metric, builtin_potential and the CLI
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


def finite_number(value):
    """Whether value is a real number other than a bool, and finite: NaN,
    the infinities and an int past the float range are not."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _read(catalog, name, params, **defaults):
    """The values of catalog[name]'s parameters, in catalog order.

    A parameter named in defaults may be left out, and takes only a
    boolean if its default is one.  Every other one is required, and is a
    finite real number, read through float: a boolean or a string is
    refused.  A missing, an unexpected or a refused parameter raises
    ValueError.
    """
    names, params = catalog[name][0], {**defaults, **(params or {})}
    extra = sorted(params.keys() - set(names))
    if extra:
        raise ValueError(f"unexpected {name} params {extra}")
    missing = [p for p in names if p not in params]
    if missing:
        raise ValueError(f"{name} requires params {missing}")
    for p in names:
        value, flag = params[p], isinstance(defaults.get(p), bool)
        ok = isinstance(value, bool) if flag else finite_number(value)
        if (p not in defaults or flag) and not ok:
            raise ValueError(f"{name} param {p} must be "
                             f"{'true or false' if flag else 'a number'}, "
                             f"got {params[p]!r}")
    return [params[p] if p in defaults else float(params[p]) for p in names]


def builtin_metric(name, params=None) -> MetricField:
    """Catalog lookup: minkowski, schwarzschild(M), reissner_nordstrom(M, Q)."""
    if name == "minkowski":
        coords, = _read(METRIC_CATALOG, name, params, coordinates="cartesian")
        if coords == "cartesian":
            flat = MetricPack(np.diag([-1.0, 1.0, 1.0, 1.0]),
                              np.zeros((DIM, DIM, DIM)),
                              np.zeros((DIM, DIM, DIM, DIM)))
            return MetricField(name, {"coordinates": coords}, "cartesian",
                               _constant(flat), is_flat=True)
        if coords == "spherical":
            return MetricField(
                name, {"coordinates": coords}, "spherical",
                _radial(lambda r, th: _spherical_pack(r, th, 1.0, 0.0, 0.0)),
                lambda x: _spherical_margins(x, 1e-8), is_flat=True)
        raise ValueError(f"unknown minkowski coordinates {coords!r}")

    if name == "schwarzschild":
        M, = _read(METRIC_CATALOG, name, params)
        if M <= 0:
            raise ValueError("schwarzschild requires M > 0")
        r_min = 2.0 * M * (1.0 + 1e-6)

        def pack(r, th, M=M):
            f = 1.0 - 2.0 * M / r
            return _spherical_pack(r, th, f, 2.0 * M / r ** 2,
                                   -4.0 * M / r ** 3)

        return MetricField(name, {"M": M}, "spherical", _radial(pack),
                           lambda x: _spherical_margins(x, r_min), is_flat=False)

    if name == "reissner_nordstrom":
        M, Q, allow_naked = _read(METRIC_CATALOG, name, params,
                                  allow_naked=False)
        if M <= 0:
            raise ValueError("reissner_nordstrom requires M > 0")
        if Q * Q > M * M and not allow_naked:
            raise ValueError("reissner_nordstrom requires Q^2 <= M^2 (set allow_naked to override)")
        if Q * Q <= M * M:
            r_min = (M + np.sqrt(M * M - Q * Q)) * (1.0 + 1e-6)
        else:
            r_min = 1e-6 * M

        def pack(r, th, M=M, Q=Q):
            f = 1.0 - 2.0 * M / r + Q * Q / r ** 2
            df = 2.0 * M / r ** 2 - 2.0 * Q * Q / r ** 3
            d2f = -4.0 * M / r ** 3 + 6.0 * Q * Q / r ** 4
            return _spherical_pack(r, th, f, df, d2f)

        return MetricField(name, {"M": M, "Q": Q}, "spherical", _radial(pack),
                           lambda x: _spherical_margins(x, r_min), is_flat=False)

    raise ValueError(f"unknown metric {name!r}")


# ---------------------------------------------------------------------------
# potential catalog

_AXIS_INDEX = {"x": 1, "y": 2, "z": 3}
# A = B * x^a dx^b puts the magnetic field along the remaining axis
_B_COMPONENTS = {"z": (1, 2), "x": (2, 3), "y": (3, 1)}


def builtin_potential(name, params=None) -> PotentialField:
    """Catalog lookup: zero, uniform_b(B, axis), uniform_e(E, axis), coulomb(Q), pure_gauge(c)."""
    if name == "zero":
        _read(POTENTIAL_CATALOG, name, params)
        none = PotentialPack(np.zeros((DIM, DIM)), np.zeros((DIM, DIM, DIM)))
        return PotentialField(name, {}, "any", _constant(none))

    if name == "uniform_b":
        B, axis = _read(POTENTIAL_CATALOG, name, params, axis="z")
        if axis not in _B_COMPONENTS:
            raise ValueError(f"uniform_b axis must be x, y, or z, got {axis!r}")
        dA = np.zeros((DIM, DIM))
        dA[_B_COMPONENTS[axis]] = B
        return PotentialField(
            name, {"B": B, "axis": axis}, "cartesian",
            _constant(PotentialPack(dA, np.zeros((DIM, DIM, DIM)))))

    if name == "uniform_e":
        E, axis = _read(POTENTIAL_CATALOG, name, params, axis="x")
        if axis not in _AXIS_INDEX:
            raise ValueError(f"uniform_e axis must be x, y, or z, got {axis!r}")
        dA = np.zeros((DIM, DIM))
        dA[_AXIS_INDEX[axis], 0] = -E
        return PotentialField(
            name, {"E": E, "axis": axis}, "cartesian",
            _constant(PotentialPack(dA, np.zeros((DIM, DIM, DIM)))))

    if name == "coulomb":
        Q, = _read(POTENTIAL_CATALOG, name, params)
        r_min = 1e-6 * max(abs(Q), 1.0)

        def pack(r, th, Q=Q):
            dA = np.zeros((DIM, DIM))
            dA[1, 0] = -Q / r ** 2
            d2A = np.zeros((DIM, DIM, DIM))
            d2A[1, 1, 0] = 2.0 * Q / r ** 3
            return PotentialPack(dA, d2A)

        return PotentialField(name, {"Q": Q}, "spherical", _radial(pack),
                              lambda x: np.array([x[1] - r_min]))

    if name == "pure_gauge":
        c, = _read(POTENTIAL_CATALOG, name, params)
        dA = np.zeros((DIM, DIM))
        dA[2, 1] = dA[1, 2] = c
        return PotentialField(
            name, {"c": c}, "cartesian",
            _constant(PotentialPack(dA, np.zeros((DIM, DIM, DIM)))))

    raise ValueError(f"unknown potential {name!r}")


def coords_compatible(metric: MetricField, potential: PotentialField) -> bool:
    return potential.coords == "any" or potential.coords == metric.coords


# ---------------------------------------------------------------------------
# generic evaluator for user-defined fields


def _jet_pack(fn, build):
    """The pack function of a jet-evaluable callable fn: build applied to
    fn's jet at the point, seeded in all 4 directions."""
    return lambda x: build(fn(Jet.seed(x, DIM)))


def metric_from_callable(fn, name="custom", coords="cartesian",
                         margins_fn=None, is_flat=False) -> MetricField:
    """Build a MetricField from a jet-evaluable callable x -> g_ij.

    The callable receives the base point with infinitesimal components
    seeded in all 4 directions and must use jet-safe arithmetic, so the
    derivative packs come out exact.  Its packs report no zeros.
    """
    return MetricField(name, {}, coords,
                       _jet_pack(fn, lambda J: MetricPack(J.v, J.d, J.h)),
                       margins_fn, is_flat)


def potential_from_callable(fn, name="custom", coords="cartesian",
                            margins_fn=None) -> PotentialField:
    """Build a PotentialField from a jet-evaluable callable x -> A_i;
    its packs report no zeros."""
    return PotentialField(name, {}, coords,
                          _jet_pack(fn, lambda J: PotentialPack(J.d, J.h)),
                          margins_fn)


# ---------------------------------------------------------------------------
# derived quantities


def christoffel(metric, x):
    """Levi-Civita coefficients gamma[i,j,k] at x, and dgamma[m,i,j,k],
    their x^m partials."""
    pack = metric.pack(x)
    return pack.gamma, pack.dgamma


def faraday(potential, x):
    """Field strength F_ij = d_i A_j - d_j A_i and its base derivatives at x."""
    pack = potential.pack(x)
    return pack.F, pack.dF


def base_riemann(metric, x):
    """Curvature of the Levi-Civita connection at x and its trace; see
    MetricPack.riemann and ricci for the sign convention."""
    pack = metric.pack(x)
    return pack.riemann, pack.ricci


def current(pp, mp):
    """Source 4-current J^i = (1/4 pi) nabla_j F^{ji}, from a potential
    pack pp and a metric pack mp."""
    ginv, dginv, gamma, F, dF = mp.ginv, mp.dginv, mp.gamma, pp.F, pp.dF
    Fup = ginv @ F @ ginv
    dFup = (einsum("mac,cd,bd->mab", dginv, F, ginv)
            + einsum("ac,mcd,bd->mab", ginv, dF, ginv)
            + einsum("ac,cd,mbd->mab", ginv, F, dginv))
    divF = (einsum("jja->a", dFup)
            + einsum("jbj,ba->a", gamma, Fup)
            + einsum("abj,jb->a", gamma, Fup))
    return divF / (4.0 * np.pi)


def stress_energy_em(F, g, ginv) -> np.ndarray:
    """Electromagnetic stress-energy T_ij = (1/4pi)(F_ia F_j^a - g_ij F^2/4).

    Sign fixed so the energy density T(u,u) of a magnetic field is positive
    in the (-,+,+,+) signature; the charged exterior solution then satisfies
    ricci_ij = 8 pi T_ij exactly.  ginv is the inverse of g.
    """
    F = np.asarray(F, dtype=float)
    term = einsum("ia,ab,jb->ij", F, ginv, F)
    scalar = einsum("ab,ab->", F, ginv @ F @ ginv)
    return (term - 0.25 * g * scalar) / (4.0 * np.pi)
