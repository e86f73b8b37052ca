import ast
import functools
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from conftest import fd_gradient, fd_hessian, potential_by_hand

import tidalbundle
from tidalbundle.connection import field_frame
from tidalbundle.errors import ChartDomainError
from tidalbundle.fields import (MetricPack, PotentialPack, builtin_metric,
                                builtin_potential, cached_property,
                                christoffel, coords_compatible, current,
                                faraday, metric_from_callable,
                                potential_from_callable, stress_energy_em)
from tidalbundle.jets import jeinsum, jsqrt

X_SPH = np.array([0.0, 10.0, 1.1, 0.3])  # generic exterior point
X_CART = np.array([0.0, 0.4, -0.2, 0.7])


# ---------------------------------------------------------------------------
# catalog values against hand calculation


def test_schwarzschild_components_by_hand():
    # f = 1 - 2M/r = 0.8 at M=1, r=10
    m = builtin_metric("schwarzschild", {"M": 1.0})
    pk = m.pack(X_SPH)
    assert pk.g[0, 0] == pytest.approx(-0.8)
    assert pk.g[1, 1] == pytest.approx(1.25)
    assert pk.g[2, 2] == pytest.approx(100.0)
    assert pk.g[3, 3] == pytest.approx(100.0 * np.sin(1.1) ** 2)
    # gamma^r_tt = f f'/2 = 0.8 * 0.02 / 2
    gamma = pk.gamma
    assert gamma[1, 0, 0] == pytest.approx(0.008, rel=1e-12)
    # gamma^t_tr = f'/(2f) = 0.0125
    assert gamma[0, 0, 1] == pytest.approx(0.0125, rel=1e-12)


def test_uniform_b_field_strength():
    pot = builtin_potential("uniform_b", {"B": 1.5, "axis": "z"})
    pk = pot.pack(X_CART)
    F, dF = pk.F, pk.dF
    assert F[1, 2] == pytest.approx(1.5)
    assert F[2, 1] == pytest.approx(-1.5)
    assert np.count_nonzero(F) == 2
    assert not dF.any()


def test_coulomb_field_strength_by_hand():
    pot = builtin_potential("coulomb", {"Q": 0.5})
    F = pot.pack(X_SPH).F
    # A_t = Q/r, so F_rt = d_r A_t = -Q/r^2
    assert F[1, 0] == pytest.approx(-0.005, rel=1e-12)
    np.testing.assert_allclose(F, -F.T, atol=0)


def test_reissner_nordstrom_reduces_to_schwarzschild():
    rn = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.0})
    sw = builtin_metric("schwarzschild", {"M": 1.0})
    np.testing.assert_allclose(rn.pack(X_SPH).g, sw.pack(X_SPH).g, rtol=1e-15)
    np.testing.assert_allclose(rn.pack(X_SPH).dg, sw.pack(X_SPH).dg, rtol=1e-15)


# ---------------------------------------------------------------------------
# derivative packs against finite differences


@pytest.mark.parametrize("name,params,x", [
    ("schwarzschild", {"M": 1.0}, X_SPH),
    ("reissner_nordstrom", {"M": 1.0, "Q": 0.5}, X_SPH),
    ("minkowski", {"coordinates": "spherical"}, X_SPH),
])
def test_metric_derivatives_match_fd(name, params, x):
    m = builtin_metric(name, params)
    np.testing.assert_allclose(m.pack(x).dg,
                               fd_gradient(lambda z: m.pack(z).g, x),
                               rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(m.pack(x).d2g,
                               fd_hessian(lambda z: m.pack(z).g, x),
                               rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("name,params,x", [
    ("coulomb", {"Q": 0.7}, X_SPH),
    ("uniform_e", {"E": 0.3, "axis": "x"}, X_CART),
    ("pure_gauge", {"c": 0.8}, X_CART),
    ("uniform_b", {"B": 1.5, "axis": "z"}, X_CART),
    ("uniform_b", {"B": -0.6, "axis": "x"}, X_CART),
    ("uniform_b", {"B": 2.0, "axis": "y"}, X_CART),
])
def test_potential_derivatives_match_fd(name, params, x):
    pot = builtin_potential(name, params)
    def A(z):
        return potential_by_hand(name, params, z)
    np.testing.assert_allclose(pot.pack(x).dA, fd_gradient(A, x),
                               rtol=1e-7, atol=1e-10)
    np.testing.assert_allclose(pot.pack(x).d2A, fd_hessian(A, x),
                               rtol=1e-4, atol=1e-6)


def test_christoffel_matches_fd_of_metric():
    # independent assembly: gamma^i_jk = 0.5 g^ia (d_j g_ak + d_k g_aj - d_a g_jk)
    m = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
    dg = fd_gradient(lambda z: m.pack(z).g, X_SPH)
    ginv = m.pack(X_SPH).ginv
    want = 0.5 * (np.einsum("ia,jak->ijk", ginv, dg)
                  + np.einsum("ia,kaj->ijk", ginv, dg)
                  - np.einsum("ia,ajk->ijk", ginv, dg))
    gamma = m.pack(X_SPH).gamma
    np.testing.assert_allclose(gamma, want, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# curvature and sources


def test_derived_tensors_are_the_packs():
    # christoffel and field_frame read the pack's cached tensors
    m = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
    pot = builtin_potential("coulomb", {"Q": 0.5})
    mp = m.pack(X_SPH)
    gamma, dgamma = christoffel(m, X_SPH)
    np.testing.assert_array_equal(gamma, mp.gamma)
    np.testing.assert_array_equal(dgamma, mp.dgamma)
    frame = field_frame(m, pot, X_SPH)
    for name in ("g", "ginv", "dg", "dginv", "gamma", "dgamma"):
        np.testing.assert_array_equal(getattr(frame, name),
                                      getattr(mp, name))
    F, dF = faraday(pot, X_SPH)
    np.testing.assert_array_equal(frame.F, F)
    np.testing.assert_array_equal(frame.dF, dF)
    assert frame.dgamma is frame.metric_pack.dgamma


def test_flat_spherical_chart_is_flat():
    pk = builtin_metric("minkowski", {"coordinates": "spherical"}).pack(X_SPH)
    riem, ricci = pk.riemann, pk.ricci
    assert np.max(np.abs(riem)) < 1e-12
    assert np.max(np.abs(ricci)) < 1e-12


def test_schwarzschild_is_ricci_flat():
    pk = builtin_metric("schwarzschild", {"M": 1.0}).pack(X_SPH)
    riem, ricci = pk.riemann, pk.ricci
    assert np.max(np.abs(riem)) > 1e-4  # curvature itself is not zero
    assert np.max(np.abs(ricci)) < 1e-12


def test_reissner_nordstrom_sources_coulomb():
    # exterior Einstein equation with the standard electromagnetic
    # stress tensor: ricci = 8 pi T_em (trace-free source)
    m = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
    pot = builtin_potential("coulomb", {"Q": 0.5})
    pk = m.pack(X_SPH)
    ricci = pk.ricci
    F = pot.pack(X_SPH).F
    T = stress_energy_em(F, pk.g, pk.ginv)
    np.testing.assert_allclose(ricci, 8.0 * np.pi * T,
                               rtol=1e-8, atol=1e-14)
    assert np.einsum("ij,ij->", pk.ginv, T) == pytest.approx(0.0, abs=1e-15)


def test_vacuum_maxwell_current_vanishes():
    sph = builtin_metric("minkowski", {"coordinates": "spherical"})
    cart = builtin_metric("minkowski")
    for pot, m, x in [
        (builtin_potential("coulomb", {"Q": 0.4}), sph, X_SPH),
        (builtin_potential("uniform_b", {"B": 1.0, "axis": "y"}), cart, X_CART),
        (builtin_potential("pure_gauge", {"c": 0.8}), cart, X_CART),
    ]:
        J = current(pot.pack(x), m.pack(x))
        assert np.max(np.abs(J)) < 1e-14


# ---------------------------------------------------------------------------
# chart guards and callable lifting


def test_chart_guard_rejects_interior():
    m = builtin_metric("schwarzschild", {"M": 1.0})
    with pytest.raises(ChartDomainError):
        m.pack(np.array([0.0, 1.9, 1.1, 0.0]))
    assert m.guard_ok(X_SPH)
    assert not m.guard_ok(np.array([0.0, 1.9, 1.1, 0.0]))


def test_catalog_rejects_bad_params():
    with pytest.raises(ValueError):
        builtin_metric("schwarzschild", {"M": -1.0})
    with pytest.raises(ValueError):
        builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 2.0})
    builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 2.0, "allow_naked": True})
    with pytest.raises(ValueError):
        builtin_metric("nosuch")
    with pytest.raises(ValueError):
        builtin_potential("uniform_b", {"B": 1.0, "axis": "t"})


def test_catalog_refuses_strings_and_non_finite_numbers():
    # a numeric parameter is a finite int or float: a string that float()
    # would read, NaN, an infinity or an int past the float range is
    # refused, and a finite number of any real type is read as a float
    for value in (float("nan"), float("inf"), -float("inf"), "nan", "inf",
                  "1e400", "0.5", 10 ** 400, True, None):
        with pytest.raises(ValueError, match="param B must be a number"):
            builtin_potential("uniform_b", {"B": value})
    with pytest.raises(ValueError, match="param M must be a number"):
        builtin_metric("schwarzschild", {"M": float("nan")})
    for value in (2, 2.0, np.float64(2.0), np.int64(2)):
        assert builtin_potential("uniform_b", {"B": value}).params["B"] == 2.0
        assert type(builtin_potential("uniform_b",
                                      {"B": value}).params["B"]) is float


def test_coord_names_follow_the_chart():
    assert builtin_metric("minkowski").coord_names == ("t", "x", "y", "z")
    for m in (builtin_metric("schwarzschild", {"M": 1.0}),
              metric_from_callable(lambda x: x, coords="spherical")):
        assert m.coord_names == ("t", "r", "theta", "phi")
    assert metric_from_callable(lambda x: x, coords="null").coord_names == \
        ("x0", "x1", "x2", "x3")


def test_coords_compatibility():
    cart = builtin_metric("minkowski")
    assert not coords_compatible(cart, builtin_potential("coulomb", {"Q": 1.0}))
    assert coords_compatible(cart, builtin_potential("zero"))


# ---------------------------------------------------------------------------
# packs built once per field, and the read-once attribute


def _derived(pack):
    """Every read-once tensor of a pack, read."""
    return {name: getattr(pack, name) for name, attr in vars(type(pack)).items()
            if isinstance(attr, cached_property)}


def _dA(*entries):
    """A 4x4 dA holding the (k, i, value) entries, zero elsewhere."""
    dA = np.zeros((4, 4))
    for k, i, value in entries:
        dA[k, i] = value
    return dA


# the potentials whose pack does not depend on x, with their dA by hand:
# zero and the potentials linear in x
CONSTANT_POTENTIALS = [
    (builtin_potential("zero"), _dA()),
    (builtin_potential("uniform_b", {"B": 1.5}), _dA((1, 2, 1.5))),
    (builtin_potential("uniform_e", {"E": 0.3}), _dA((1, 0, -0.3))),
    (builtin_potential("pure_gauge", {"c": 0.8}),
     _dA((1, 2, 0.8), (2, 1, 0.8))),
]


def test_constant_packs_are_built_once_per_field():
    # fields whose pack does not depend on x hand every point one pack,
    # with the same bits as a fresh build of it
    assert [f.name for f in fields(PotentialPack)] == ["dA", "d2A"]
    cart = builtin_metric("minkowski")
    assert cart.pack(X_CART) is cart.pack(-X_CART)
    assert cart.pack(X_CART) is cart.pack(X_CART, check=False)
    cases = [(cart.pack(X_CART),
              MetricPack(np.diag([-1.0, 1.0, 1.0, 1.0]), np.zeros((4, 4, 4)),
                         np.zeros((4, 4, 4, 4))))]
    for pot, dA in CONSTANT_POTENTIALS:
        assert pot.pack(X_CART) is pot.pack(X_SPH), pot.name
        assert pot.pack(X_CART) is pot.pack(-X_CART, check=False), pot.name
        cases.append((pot.pack(X_CART),
                      PotentialPack(dA, np.zeros((4, 4, 4)))))
    for shared, ref in cases:
        want = {**vars(ref), **_derived(ref)}
        # and the record of its zeros (see test_packs_report_their_zeros)
        assert set(vars(shared)) == set(want) | {"zeros"}
        for name, value in want.items():
            assert getattr(shared, name).tobytes() == value.tobytes(), name
    # the shared pack still guards the point
    with pytest.raises(ChartDomainError):
        cart.pack(np.array([np.nan, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("field, x", [
    (builtin_metric("minkowski", {"coordinates": "spherical"}), X_SPH),
    (builtin_metric("schwarzschild", {"M": 1.0}), X_SPH),
    (builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5}), X_SPH),
    (builtin_potential("coulomb", {"Q": 0.5}), X_SPH),
], ids=["minkowski-spherical", "schwarzschild", "reissner_nordstrom",
        "coulomb"])
def test_point_dependent_packs_are_fresh(field, x):
    assert field.pack(x) is not field.pack(x)
    assert not vars(field.pack(x)).keys() - {"g", "dg", "d2g", "dA", "d2A"}


@pytest.mark.parametrize("field", [builtin_metric("minkowski")]
                         + [pot for pot, _ in CONSTANT_POTENTIALS],
                         ids=["minkowski"] + [pot.name
                                              for pot, _ in CONSTANT_POTENTIALS])
def test_point_independent_packs_are_shared(field):
    # the counterpart of the fresh packs above: one pack for every point,
    # its derived tensors already built
    pack = field.pack(X_CART)
    assert pack is field.pack(X_CART)
    assert pack is field.pack(2.0 * X_CART)
    built = set(vars(pack))
    assert built == ({f.name for f in fields(pack)} | _derived(pack).keys()
                     | {"zeros"})


# every catalog field, at nominal strength and at zero, with the zeros
# its pack reports: the names whose arrays are all zero in a constant pack,
# and none in a pack that depends on the point (coulomb at Q = 0 too)
ZERO_REPORTS = [
    (builtin_metric("minkowski"), X_CART, {"dg"}),
    (builtin_metric("minkowski", {"coordinates": "spherical"}), X_SPH, set()),
    (builtin_metric("schwarzschild", {"M": 1.0}), X_SPH, set()),
    (builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5}), X_SPH,
     set()),
    (builtin_potential("zero"), X_CART, {"d2A", "F"}),
    (builtin_potential("uniform_b", {"B": 1.5}), X_CART, {"d2A"}),
    (builtin_potential("uniform_b", {"B": 0.0, "axis": "x"}), X_CART,
     {"d2A", "F"}),
    (builtin_potential("uniform_e", {"E": 0.3}), X_CART, {"d2A"}),
    (builtin_potential("uniform_e", {"E": 0.0}), X_CART, {"d2A", "F"}),
    (builtin_potential("coulomb", {"Q": 0.5}), X_SPH, set()),
    (builtin_potential("coulomb", {"Q": 0.0}), X_SPH, set()),
    (builtin_potential("pure_gauge", {"c": 0.8}), X_CART, {"d2A", "F"}),
    (builtin_potential("pure_gauge", {"c": 0.0}), X_CART, {"d2A", "F"}),
]


@pytest.mark.parametrize("field, x, want", ZERO_REPORTS, ids=[
    f"{f.name}-{'-'.join(map(str, f.params.values()))}"
    for f, _, _ in ZERO_REPORTS])
def test_packs_report_their_zeros(field, x, want):
    pack = field.pack(x)
    assert pack.zeros == want
    if pack is not field.pack(x):  # point-dependent
        assert want == set()
        return
    # a constant pack names exactly the facts whose arrays are all zero
    # ("dg" needs d2g too); F is read from the pack, dA - dA^T by hand
    arrays = {name: np.asarray(value) for name, value in vars(pack).items()
              if name != "zeros"}
    if isinstance(pack, PotentialPack):
        arrays["F"] = pack.dA - pack.dA.T
    zero = {name for name, value in arrays.items() if np.all(value == 0.0)}
    facts = {"dg": {"dg", "d2g"}, "d2A": {"d2A"}, "F": {"F"}}
    assert want == {fact for fact, names in facts.items() if names <= zero}


def test_shared_pack_is_read_only():
    # a write into the one pack every point shares raises, inputs and
    # derived tensors alike, and so does one through a frame
    cart, zero = builtin_metric("minkowski"), builtin_potential("zero")
    packs = [cart.pack(X_CART)] + [pot.pack(X_CART)
                                   for pot, _ in CONSTANT_POTENTIALS]
    for pack in packs:
        assert type(pack.zeros) is frozenset  # immutable by type
        for name, value in vars(pack).items():
            if name == "zeros":
                continue
            assert not value.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 1.0
    frame = field_frame(cart, zero, X_CART)
    with pytest.raises(ValueError, match="read-only"):
        frame.gamma[1, 0, 0] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        frame.dF[...] *= 2.0
    np.testing.assert_array_equal(cart.pack(X_CART).gamma, 0.0)
    np.testing.assert_array_equal(zero.pack(X_CART).dF, 0.0)
    uniform_b = CONSTANT_POTENTIALS[1][0]
    with pytest.raises(ValueError, match="read-only"):
        field_frame(cart, uniform_b, X_CART).F[1, 2] = 0.0
    assert uniform_b.pack(X_CART).F[1, 2] == 1.5


def test_read_once_attribute_behaves_like_functools():
    reads = []

    @dataclass(frozen=True)
    class Frozen:
        a: float

        @cached_property
        def twice(self):
            """2a."""
            reads.append(self.a)
            return 2.0 * self.a

    assert isinstance(Frozen.twice, cached_property)
    assert Frozen.twice.__doc__ == "2a."
    f = Frozen(1.5)
    assert "twice" not in vars(f)
    assert f.twice == 3.0 and f.twice == 3.0
    assert vars(f)["twice"] == 3.0
    assert reads == [1.5]
    # a pack's derived tensor lands in its own vars, like the stdlib's
    pk = builtin_metric("schwarzschild", {"M": 1.0}).pack(X_SPH)
    assert "gamma" not in vars(pk)
    assert pk.gamma is pk.gamma is vars(pk)["gamma"]


def test_no_module_uses_functools_cached_property():
    # functools.cached_property takes a lock on every first read on Python
    # 3.10 and 3.11; the package reads through fields.cached_property
    offenders = []
    for path in Path(tidalbundle.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module == "functools"
                    and any(a.name == "cached_property" for a in node.names)):
                offenders.append(path.name)
            if (isinstance(node, ast.Attribute)
                    and node.attr == "cached_property"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "functools"):
                offenders.append(path.name)
    assert offenders == []
    assert cached_property is not functools.cached_property


def _basis(i, j):
    e = np.zeros((4, 4))
    e[i, j] = 1.0
    return e


def test_callable_metric_derivatives_are_exact():
    # rational toy metric lifted through the jet constructor; the packs
    # must match an independent finite-difference oracle
    def mfn(x):
        w = 1.0 + 0.1 * (x[1] * x[1] + 0.5 * x[2])
        return (jeinsum("ij,->ij", _basis(0, 0), -1.0 * w)
                + jeinsum("ij,->ij", _basis(1, 1), 1.0 / w)
                + jeinsum("ij,->ij", _basis(2, 2), 1.0 + x[3] * x[3])
                + jeinsum("ij,->ij", _basis(3, 3), jsqrt(4.0 + x[1] * x[1])))

    m = metric_from_callable(mfn)
    pk = m.pack(X_CART)
    np.testing.assert_allclose(pk.dg,
                               fd_gradient(lambda z: m.pack(z).g, X_CART),
                               rtol=1e-7, atol=1e-10)
    np.testing.assert_allclose(pk.d2g,
                               fd_hessian(lambda z: m.pack(z).g, X_CART),
                               rtol=1e-4, atol=1e-6)


def test_callable_potential_matches_catalog():
    def afn(x):
        proj = np.zeros(4)
        proj[0] = 1.0
        return jeinsum("i,->i", proj, 0.5 / x[1])

    pot = potential_from_callable(afn, coords="spherical")
    ref = builtin_potential("coulomb", {"Q": 0.5})
    for name in ("dA", "d2A", "F"):
        np.testing.assert_allclose(getattr(pot.pack(X_SPH), name),
                                   getattr(ref.pack(X_SPH), name), rtol=1e-15)


# ---------------------------------------------------------------------------
# the spherical packs against numpy-scalar arithmetic


def _numpy_scalar_pack(x, f, df, d2f):
    # diag(-f, 1/f, r^2, r^2 sin^2 th) built from np.diag and numpy scalars
    r, th = x[1], x[2]
    s, c = np.sin(th), np.cos(th)
    g = np.diag([-f, 1.0 / f, r * r, r * r * s * s])
    dg = np.zeros((4, 4, 4))
    dg[1, 0, 0] = -df
    dg[1, 1, 1] = -df / f ** 2
    dg[1, 2, 2] = 2.0 * r
    dg[1, 3, 3] = 2.0 * r * s * s
    dg[2, 3, 3] = 2.0 * r * r * s * c
    d2g = np.zeros((4, 4, 4, 4))
    d2g[1, 1, 0, 0] = -d2f
    d2g[1, 1, 1, 1] = -d2f / f ** 2 + 2.0 * df ** 2 / f ** 3
    d2g[1, 1, 2, 2] = 2.0
    d2g[1, 1, 3, 3] = 2.0 * s * s
    d2g[1, 2, 3, 3] = d2g[2, 1, 3, 3] = 4.0 * r * s * c
    d2g[2, 2, 3, 3] = 2.0 * r * r * (c * c - s * s)
    return g, dg, d2g


def _numpy_scalar_rn(M, Q):
    def pack(x):
        r = x[1]
        return _numpy_scalar_pack(
            x, 1.0 - 2.0 * M / r + Q * Q / r ** 2,
            2.0 * M / r ** 2 - 2.0 * Q * Q / r ** 3,
            -4.0 * M / r ** 3 + 6.0 * Q * Q / r ** 4)
    return pack


def _numpy_scalar_schwarzschild(x, M=1.0):
    r = x[1]
    return _numpy_scalar_pack(x, 1.0 - 2.0 * M / r, 2.0 * M / r ** 2,
                              -4.0 * M / r ** 3)


def _numpy_scalar_coulomb(x, Q=0.7):
    r = x[1]
    dA, d2A = np.zeros((4, 4)), np.zeros((4, 4, 4))
    dA[1, 0] = -Q / r ** 2
    d2A[1, 1, 0] = 2.0 * Q / r ** 3
    return dA, d2A


SPHERICAL_FIELDS = [
    (builtin_metric("minkowski", {"coordinates": "spherical"}),
     lambda x: _numpy_scalar_pack(x, 1.0, 0.0, 0.0)),
    (builtin_metric("schwarzschild", {"M": 1.0}), _numpy_scalar_schwarzschild),
    (builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5}),
     _numpy_scalar_rn(1.0, 0.5)),
    (builtin_metric("reissner_nordstrom",
                    {"M": 1.0, "Q": 1.5, "allow_naked": True}),
     _numpy_scalar_rn(1.0, 1.5)),
    (builtin_potential("coulomb", {"Q": 0.7}), _numpy_scalar_coulomb),
]


def _arrays(pack):
    if isinstance(pack, PotentialPack):
        return pack.dA, pack.d2A
    return pack.g, pack.dg, pack.d2g


@pytest.mark.parametrize("field, reference", SPHERICAL_FIELDS)
def test_spherical_packs_match_numpy_scalars_bytes(field, reference):
    # Python-float arithmetic gives numpy scalars' bits, at chart points
    # and at points within 1e-6 of the axis guard, sin(theta) = 1e-8
    rng = np.random.default_rng(11)
    axis = np.arcsin(1e-8)
    for k in range(500):
        th = (rng.uniform(0.05, np.pi - 0.05) if k % 2 else
              axis + rng.uniform(0.0, 1e-6) if k % 4 else
              np.pi - axis - rng.uniform(0.0, 1e-6))
        x = np.array([rng.uniform(-5.0, 5.0), rng.uniform(0.0, 40.0), th,
                      rng.uniform(0.0, 6.2)])
        if not field.guard_ok(x):
            continue
        for mine, ref in zip(_arrays(field.pack(x, check=False)),
                             reference(x)):
            assert mine.tobytes() == ref.tobytes()


@pytest.mark.parametrize("field, reference", SPHERICAL_FIELDS)
def test_spherical_packs_past_the_float_range_match_numpy_scalars(
        field, reference):
    # where Python's arithmetic raises (r = 0, a power past the float
    # range, 1/f at a horizon) the pack takes numpy's inf and NaN, as an
    # integrator's unguarded trial stage reads them; NaN sign bits are
    # not compared, as Python's arithmetic does not fix them
    with np.errstate(all="ignore"):
        for r in (0.0, -0.0, 1e-200, 1e-80, 1e80, 1e200, 2.0, 1.0,
                  np.nan, np.inf, -1.0):
            x = np.array([0.0, r, 1.2, 0.3])
            for mine, ref in zip(_arrays(field.pack(x, check=False)),
                                 reference(x)):
                np.testing.assert_array_equal(mine, ref)
                assert (np.signbit(mine) == np.signbit(ref))[
                    ~np.isnan(ref)].all()
