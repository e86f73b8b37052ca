import numpy as np
import pytest
from conftest import fd_gradient, fd_hessian

from tidalbundle.connection import field_frame
from tidalbundle.errors import ChartDomainError
from tidalbundle.fields import (base_riemann, builtin_metric,
                                builtin_potential, christoffel,
                                coords_compatible, current, faraday,
                                gravity_tidal, metric_from_callable,
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
    gamma, _ = christoffel(pk)
    assert gamma[1, 0, 0] == pytest.approx(0.008, rel=1e-12)
    # gamma^t_tr = f'/(2f) = 0.0125
    assert gamma[0, 0, 1] == pytest.approx(0.0125, rel=1e-12)


def test_uniform_b_field_strength():
    pot = builtin_potential("uniform_b", {"B": 1.5, "axis": "z"})
    F, dF = faraday(pot.pack(X_CART))
    assert F[1, 2] == pytest.approx(1.5)
    assert F[2, 1] == pytest.approx(-1.5)
    assert np.count_nonzero(F) == 2
    assert not dF.any()


def test_coulomb_field_strength_by_hand():
    pot = builtin_potential("coulomb", {"Q": 0.5})
    F, _ = faraday(pot.pack(X_SPH))
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
])
def test_potential_derivatives_match_fd(name, params, x):
    pot = builtin_potential(name, params)
    np.testing.assert_allclose(pot.pack(x).dA,
                               fd_gradient(lambda z: pot.pack(z).A, x),
                               rtol=1e-7, atol=1e-10)
    np.testing.assert_allclose(pot.pack(x).d2A,
                               fd_hessian(lambda z: pot.pack(z).A, x),
                               rtol=1e-4, atol=1e-6)


def test_christoffel_matches_fd_of_metric():
    # independent assembly: gamma^i_jk = 0.5 g^ia (d_j g_ak + d_k g_aj - d_a g_jk)
    m = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
    dg = fd_gradient(lambda z: m.pack(z).g, X_SPH)
    ginv = m.pack(X_SPH).ginv
    want = 0.5 * (np.einsum("ia,jak->ijk", ginv, dg)
                  + np.einsum("ia,kaj->ijk", ginv, dg)
                  - np.einsum("ia,ajk->ijk", ginv, dg))
    gamma, _ = christoffel(m.pack(X_SPH))
    np.testing.assert_allclose(gamma, want, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# curvature and sources


def test_derived_tensors_are_the_packs():
    # christoffel, current and field_frame read the pack's cached tensors
    m = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
    pot = builtin_potential("coulomb", {"Q": 0.5})
    mp, pp = m.pack(X_SPH), pot.pack(X_SPH)
    gamma, dgamma = christoffel(m, X_SPH)
    np.testing.assert_array_equal(gamma, mp.gamma)
    np.testing.assert_array_equal(dgamma, mp.dgamma)
    np.testing.assert_array_equal(current(pot, m, X_SPH),
                                  current(pp, mp))
    frame = field_frame(m, pot, X_SPH)
    for name in ("g", "ginv", "dg", "dginv", "gamma", "dgamma"):
        np.testing.assert_array_equal(getattr(frame, name),
                                      getattr(mp, name))
    F, dF = faraday(pot, X_SPH)
    np.testing.assert_array_equal(frame.F, F)
    np.testing.assert_array_equal(frame.dF, dF)
    assert christoffel(mp)[1] is mp.dgamma


def test_flat_spherical_chart_is_flat():
    m = builtin_metric("minkowski", {"coordinates": "spherical"})
    riem, ricci = base_riemann(m.pack(X_SPH))
    assert np.max(np.abs(riem)) < 1e-12
    assert np.max(np.abs(ricci)) < 1e-12


def test_schwarzschild_is_ricci_flat():
    m = builtin_metric("schwarzschild", {"M": 1.0})
    riem, ricci = base_riemann(m.pack(X_SPH))
    assert np.max(np.abs(riem)) > 1e-4  # curvature itself is not zero
    assert np.max(np.abs(ricci)) < 1e-12


def test_reissner_nordstrom_sources_coulomb():
    # exterior Einstein equation with the standard electromagnetic
    # stress tensor: ricci = 8 pi T_em (trace-free source)
    m = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
    pot = builtin_potential("coulomb", {"Q": 0.5})
    pk = m.pack(X_SPH)
    _, ricci = base_riemann(pk)
    F, _ = faraday(pot.pack(X_SPH))
    T = stress_energy_em(F, pk.g)
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
        J = current(pot, m, x)
        assert np.max(np.abs(J)) < 1e-14


def test_gravity_tidal_contracts_riemann():
    m = builtin_metric("schwarzschild", {"M": 1.0})
    y = np.array([1.2, 0.1, 0.01, 0.02])
    riem, _ = base_riemann(m.pack(X_SPH))
    want = np.einsum("iajb,a,b->ij", riem, y, y)
    np.testing.assert_allclose(gravity_tidal(m, y, X_SPH), want, rtol=1e-14)


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


def test_coords_compatibility():
    cart = builtin_metric("minkowski")
    assert not coords_compatible(cart, builtin_potential("coulomb", {"Q": 1.0}))
    assert coords_compatible(cart, builtin_potential("zero"))


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
    np.testing.assert_allclose(pot.pack(X_SPH).A, ref.pack(X_SPH).A, rtol=1e-15)
    np.testing.assert_allclose(pot.pack(X_SPH).dA, ref.pack(X_SPH).dA, rtol=1e-15)
    np.testing.assert_allclose(pot.pack(X_SPH).d2A, ref.pack(X_SPH).d2A, rtol=1e-15)
