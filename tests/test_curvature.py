import numpy as np
import pytest
from conftest import fd_hessian

from tidalbundle.connection import (FiberParts, Sample, field_frame,
                                    phase_point)
from tidalbundle.curvature import tidal_packet, trace_decomposition
from tidalbundle.fields import builtin_metric, builtin_potential
from tidalbundle.jets import Jet, jeinsum, jsqrt
from tidalbundle.scenario import builtin_scenario
from tidalbundle.tensors import DIM, norm_and_sign
from tidalbundle.verify import DEFAULT_ALPHAS

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
    R3 = _packet().nonlinear_curvature
    np.testing.assert_allclose(R3, -np.swapaxes(R3, 1, 2), atol=1e-18)


def test_tidal_contracts_curvature():
    tp = _packet()
    R3, E, Et, tr = (tp.nonlinear_curvature, tp.tidal, tp.tidal_angular,
                     tp.tidal_trace)
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


def test_jet_hessian_of_tidal_matches_finite_differences(monkeypatch):
    # the fiber Hessian of E, read by the curvature block and the Ricci
    # tensor, against nested central differences of the plain tier's E;
    # at alpha != 0 it carries the Hessian of ||y||, which no suite check
    # sees (its orthogonal part passes Euler's identity)
    frame = field_frame(RN, COULOMB, X)

    def gap():
        h = Sample(frame, 1.0, Y).jet.E.h
        fd = fd_hessian(lambda y: Sample(frame, 1.0, y).plain.E, Y)
        return np.max(np.abs(h - fd)) / np.max(np.abs(h))

    bound = 1e-4    # clean: about 2e-7 here
    assert gap() < bound
    # a jet norm without its Hessian fails it (about 4e-2 here)
    sqrt = Jet.sqrt

    def flat_sqrt(self):
        root = sqrt(self)
        root.h[...] = 0.0
        return root

    monkeypatch.setattr(Jet, "sqrt", flat_sqrt)
    assert gap() > bound


def test_complex_step_hessian_of_tidal_matches_jet_hessian(monkeypatch):
    # complex-step differentiation (Squire and Trapp, SIAM Review 40, 110
    # (1998)) of the order-1 fiber jet's exact first derivative gives a
    # Hessian row of E, v.E.h = Im E.d(y + i h v) / h, with no subtractive
    # cancellation and none of the order-2 code (no cross terms, no sqrt
    # or reciprocal Hessian): an independent oracle for the jet tier's E.h
    sc = builtin_scenario("reissner_nordstrom")
    x = np.array([0.0, 8.0, 1.3, 0.4])
    y = np.array([1.2, 0.0, 0.0, 0.036])
    frame = field_frame(sc.metric, sc.potential, x)
    alphas = np.array(DEFAULT_ALPHAS)
    _, eps = norm_and_sign(frame.g, y)
    step = 1e-30

    def complex_step(v):
        s = np.zeros((1 + DIM, DIM), dtype=complex)
        s[0] = y + 1j * step * v
        s[1:] = np.eye(DIM)
        yj = Jet._of(s, DIM)
        nrm = jsqrt(eps * jeinsum("i,i->", jeinsum("ij,j->i", frame.g, yj),
                                  yj))
        parts = FiberParts(frame, alphas, frame.g, frame.gamma, frame.Fmix,
                           yj, eps, nrm)
        return parts.E.d.imag / step

    def gap():
        # worst over the 4 coordinate directions and the 5 couplings, each
        # coupling relative to the largest entry of its own Hessian
        h = Sample(frame, alphas, y).jet.E.h       # (m, m, coupling, i, j)
        scale = np.abs(h).max(axis=(0, 1, 3, 4))
        return max(np.max(np.abs(complex_step(v)
                                 - np.einsum("b,ab...->a...", v, h)
                                 ).max(axis=(0, 2, 3)) / scale)
                   for v in np.eye(DIM))

    bound = 1e-12   # clean: below 1e-15 here
    assert gap() < bound
    # a jet norm without its Hessian fails it (0.5 here); the complex step
    # never reads that Hessian
    sqrt = Jet.sqrt

    def flat_sqrt(self):
        root = sqrt(self)
        if root.h is not None:
            root.h[...] = 0.0
        return root

    monkeypatch.setattr(Jet, "sqrt", flat_sqrt)
    assert gap() > bound
