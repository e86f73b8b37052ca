import numpy as np
import pytest

from tidalbundle.connection import phase_point
from tidalbundle.curvature import (nonlinear_curvature, tidal_packet,
                                   tidal_tensor, trace_decomposition)
from tidalbundle.fields import builtin_metric, builtin_potential

RN = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
COULOMB = builtin_potential("coulomb", {"Q": 0.5})
CART = builtin_metric("minkowski")
ZERO = builtin_potential("zero")

X = np.array([0.0, 7.0, 1.3, 0.2])
Y = np.array([1.4, 0.2, 0.01, 0.015])


def _packet(alpha=1.0, y=Y):
    return tidal_packet(RN, COULOMB, alpha, phase_point(RN, X, y))


def test_flat_vacuum_everything_vanishes():
    p = phase_point(CART, np.zeros(4), np.array([1.0, 0.2, 0.0, 0.0]))
    tp = tidal_packet(CART, ZERO, 0.7, p)
    for arr in (tp.nonlinear_curvature, tp.tidal, tp.base_riemann,
                tp.d_ricci, tp.curvature_block, tp.torsion):
        assert not np.asarray(arr).any()


def test_curvature_antisymmetry():
    p = phase_point(RN, X, Y)
    R3 = nonlinear_curvature(RN, COULOMB, 1.0, p)
    np.testing.assert_allclose(R3, -np.swapaxes(R3, 1, 2), atol=1e-18)


def test_tidal_contracts_curvature():
    p = phase_point(RN, X, Y)
    R3 = nonlinear_curvature(RN, COULOMB, 1.0, p)
    E, Et, tr = tidal_tensor(RN, COULOMB, 1.0, p)
    np.testing.assert_allclose(E, np.einsum("ijk,k->ij", R3, Y), rtol=1e-14)
    assert tr == pytest.approx(np.trace(E))
    # angular projection annihilates the fiber direction on the j slot
    np.testing.assert_allclose(Et @ Y / np.max(np.abs(Et @ np.eye(4))),
                               np.zeros(4), atol=1e-12)


def test_block_reconstructs_tidal():
    tp = _packet()
    got = np.einsum("jikl,j,l->ik", tp.curvature_block, Y, Y)
    np.testing.assert_allclose(got, tp.tidal, rtol=1e-11,
                               atol=1e-14 * np.max(np.abs(tp.tidal)))


def test_ricci_contraction_slots():
    # contracting the upper slot with the third lower slot reproduces the
    # fiber-Hessian Ricci; the fourth-slot pairing does NOT, and the gap
    # is finite on a charged background. Both facts are pinned here so a
    # future "fix" of the slot order trips the suite.
    tp = _packet()
    third = -np.einsum("jiil->jl", tp.curvature_block)
    np.testing.assert_allclose(third, tp.d_ricci, rtol=1e-12, atol=1e-15)
    fourth = -np.einsum("jili->jl", tp.curvature_block)
    assert np.max(np.abs(fourth - tp.d_ricci)) > 1e-4


def test_uncharged_reduction():
    tp = _packet(alpha=0.0)
    np.testing.assert_allclose(tp.tidal, tp.gravity_tidal,
                               rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(tp.d_ricci, tp.base_ricci,
                               rtol=1e-9, atol=1e-12)
    assert not tp.contortion_block.any()


def test_charge_term_scales_quadratically_in_trace():
    # trace identity: E trace = e trace - 2 div B + B1:B1; flipping the
    # sign of alpha flips B but fixes the quadratic, so the symmetric
    # combination isolates it
    plus = trace_decomposition(RN, COULOMB, 1.0, phase_point(RN, X, Y))
    minus = trace_decomposition(RN, COULOMB, -1.0, phase_point(RN, X, Y))
    assert plus.quadratic == pytest.approx(minus.quadratic, rel=1e-12)
    assert plus.divergence == pytest.approx(-minus.divergence, rel=1e-10)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 3.0])
def test_trace_decomposition_identity(alpha):
    td = trace_decomposition(RN, COULOMB, alpha, phase_point(RN, X, Y))
    scale = max(abs(td.gravity_trace), abs(td.quadratic),
                abs(td.divergence), 1e-30)
    assert abs(td.lhs - td.rhs) < 1e-10 * scale


def test_nonspray_perturbation_breaks_torsion():
    p = phase_point(RN, X, Y)
    tp = tidal_packet(RN, COULOMB, 1.0, p, nonspray_perturbation=0.05)
    assert np.max(np.abs(tp.torsion)) > 0.01
    clean = tidal_packet(RN, COULOMB, 1.0, p)
    assert np.max(np.abs(clean.torsion)) < 1e-12


def test_spacelike_fiber_supported():
    y = np.array([0.1, 0.9, 0.02, 0.01])  # g(y,y) > 0 here
    p = phase_point(RN, X, y)
    assert p.causal_sign == 1
    tp = tidal_packet(RN, COULOMB, 1.0, p)
    got = np.einsum("jikl,j,l->ik", tp.curvature_block, y, y)
    np.testing.assert_allclose(got, tp.tidal, rtol=1e-11,
                               atol=1e-14 * np.max(np.abs(tp.tidal)))
