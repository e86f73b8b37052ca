import numpy as np
import pytest
from conftest import fd_gradient

from tidalbundle import dynamics
from tidalbundle.connection import (adapted_derivative, b_family,
                                    connection_data, d_covariant_derivative,
                                    field_frame, fiber_parts, fiber_square,
                                    fiber_velocity, phase_context, phase_point,
                                    strong_torsion, unit_direction_low)
from tidalbundle.dynamics import worldline_rhs
from tidalbundle.errors import NullFiberError
from tidalbundle.fields import builtin_metric, builtin_potential
from tidalbundle.jets import Jet, value_of

RN = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
COULOMB = builtin_potential("coulomb", {"Q": 0.5})
CART = builtin_metric("minkowski")
UB = builtin_potential("uniform_b", {"B": 1.5, "axis": "z"})

X = np.array([0.0, 8.0, 1.2, 0.4])
Y = np.array([1.3, 0.1, 0.02, 0.01])
ALPHA = 0.8


def _rn_point(y=Y):
    return phase_point(RN, X, y)


def test_contortion_orthogonal_to_fiber():
    # y_i B^i = 0: the charge term never feeds the fiber direction
    p = _rn_point()
    fam = b_family(RN, COULOMB, ALPHA, p)
    g = RN.pack(X).g
    assert abs(g @ p.y @ fam.vector) < 1e-15 * np.max(np.abs(fam.vector) + 1)


def test_euler_degree_ladder():
    # B is homogeneous of degree 1 in y, so each fiber derivative drops
    # the degree by one: B1 y = 2B would be degree 2; the actual family
    # obeys B1 y = 2B only for the spray-doubled convention checked in
    # verify; here test the raw contractions
    p = _rn_point()
    frame = field_frame(RN, COULOMB, X)
    parts = fiber_parts(frame, ALPHA, p.y)
    B, B1, B2 = value_of(parts.B), value_of(parts.B1), value_of(parts.B2)
    np.testing.assert_allclose(B1 @ p.y, 2.0 * B, rtol=1e-13)
    np.testing.assert_allclose(np.einsum("ijk,k->ij", B2, p.y), B1,
                               rtol=1e-13, atol=1e-16)


def test_third_derivative_annihilates_fiber():
    B3 = b_family(RN, COULOMB, ALPHA, _rn_point()).third
    out = np.einsum("ijkl,l->ijk", B3, Y)
    scale = np.max(np.abs(B3)) * np.max(np.abs(Y))
    assert np.max(np.abs(out)) < 1e-13 * scale


def test_fiber_derivatives_match_fd():
    # jets vs central differences in the fiber argument
    frame = field_frame(RN, COULOMB, X)

    def b_of(y):
        return value_of(fiber_parts(frame, ALPHA, y).B)

    def b1_of(y):
        return value_of(fiber_parts(frame, ALPHA, y).B1)

    parts = fiber_parts(frame, ALPHA, Y)
    np.testing.assert_allclose(value_of(parts.B1),
                               np.einsum("ji->ij", fd_gradient(b_of, Y)),
                               rtol=1e-7, atol=1e-10)
    np.testing.assert_allclose(value_of(parts.B2),
                               np.einsum("kij->ijk", fd_gradient(b1_of, Y)),
                               rtol=1e-6, atol=1e-9)


def test_spray_and_connection_contractions():
    p = _rn_point()
    cd = connection_data(RN, COULOMB, ALPHA, p)
    # N^i_j y^j = 2 G^i and G^i_jk y^j y^k = ... y-contractions tie the
    # three presentations of the same spray together
    np.testing.assert_allclose(cd.nonlinear @ p.y, 2.0 * cd.spray, rtol=1e-13)
    np.testing.assert_allclose(
        np.einsum("ijk,k->ij", cd.affine, p.y), cd.nonlinear,
        rtol=1e-12, atol=1e-15)


def test_uncharged_limit_is_levi_civita():
    p = _rn_point()
    cd = connection_data(RN, COULOMB, 0.0, p)
    frame = field_frame(RN, COULOMB, X)
    np.testing.assert_allclose(cd.affine, frame.gamma)
    assert not cd.contortion.vector.any()
    np.testing.assert_allclose(cd.nonlinear,
                               np.einsum("ijk,k->ij", frame.gamma, p.y))


def test_strong_torsion_vanishes_for_spray():
    p = _rn_point()
    tor = strong_torsion(RN, COULOMB, ALPHA, p)
    nmag = np.max(np.abs(connection_data(RN, COULOMB, ALPHA, p).nonlinear))
    assert np.max(np.abs(tor)) < 1e-13 * nmag
    # and the deliberate perturbation shows up at its own scale
    tor = strong_torsion(RN, COULOMB, ALPHA, p, perturbation=0.05)
    assert np.max(np.abs(tor)) > 0.01


def test_adapted_derivative_of_fiber_square():
    # delta_k q = 2 (g B)_k: the charge term leaks into the fiber square
    # in every adapted direction except along the flow itself, where
    # g(y, B) = 0 keeps q conserved
    p = _rn_point()
    g = RN.pack(X).g
    fam = b_family(RN, COULOMB, ALPHA, p)
    got = np.array([adapted_derivative(RN, COULOMB, ALPHA, p, fiber_square, k)
                    for k in range(4)])
    np.testing.assert_allclose(got, 2.0 * g @ fam.vector,
                               rtol=1e-11, atol=1e-14)
    assert abs(got @ p.y) < 1e-13


def test_adapted_derivative_of_fiber_velocity():
    # delta_k y^i = -N^i_k: the fiber coordinate field measures the
    # nonlinear connection
    p = _rn_point()
    N = connection_data(RN, COULOMB, ALPHA, p).nonlinear
    got = np.stack([adapted_derivative(RN, COULOMB, ALPHA, p,
                                       fiber_velocity, k) for k in range(4)],
                   axis=-1)
    np.testing.assert_allclose(got, -N, rtol=1e-13, atol=1e-16)


def test_unit_direction_transport_closed_form():
    # D_k l_i = (alpha/2) F_ik against the covariant machinery
    p = _rn_point()
    got = d_covariant_derivative(RN, COULOMB, ALPHA, p, unit_direction_low)
    frame = field_frame(RN, COULOMB, X)
    want = 0.5 * ALPHA * frame.F
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-14 * max(1.0, np.max(np.abs(frame.gamma))))


def test_phase_context_jets_are_order_one():
    ctx = phase_context(field_frame(RN, COULOMB, X), ALPHA, Y)
    names = ("x", "y", "g", "q", "l_up", "l_low", "B", "B1", "N", "n1",
             "Gaff", "h_low", "G")
    jets = [getattr(ctx, k) for k in names]
    assert all(isinstance(j, Jet) and j.h is None and j.m == 8 for j in jets)


def test_third_contortion_built_only_on_demand():
    frame = field_frame(RN, COULOMB, X)
    parts = fiber_parts(frame, ALPHA, Y)
    parts.E   # the curvature channel does not read B^i_jkl
    assert "B3" not in vars(parts)
    np.testing.assert_array_equal(
        parts.B3, b_family(RN, COULOMB, ALPHA, _rn_point()).third)
    assert "B3" in vars(parts)


def test_worldline_rhs_builds_only_what_it_reads(monkeypatch):
    seen = []

    def spy(frame, alpha, y, **kw):
        seen.append(fiber_parts(frame, alpha, y, **kw))
        return seen[-1]

    monkeypatch.setattr(dynamics, "fiber_parts", spy)
    worldline_rhs(RN, COULOMB, ALPHA, X, Y)
    (parts,) = seen
    built = (set(vars(parts)) | set(vars(parts.frame))
             | set(vars(parts.frame.metric_pack)))
    assert "N" in built
    assert not built & {"dgamma", "dginv", "dFmix", "B2", "B3", "h_low", "E"}


def test_base_reference_recovers_metric_compatibility():
    # horizontal transport with the Levi-Civita reference preserves the
    # fiber square exactly; the full connection shifts it by the
    # contortion, base - full = 2 y_i B1^i_k
    p = _rn_point()
    full = d_covariant_derivative(RN, COULOMB, ALPHA, p, fiber_square)
    base = d_covariant_derivative(RN, COULOMB, ALPHA, p, fiber_square,
                                  reference="base")
    np.testing.assert_allclose(base, np.zeros(4), atol=1e-13)
    fam = b_family(RN, COULOMB, ALPHA, p)
    g = RN.pack(X).g
    np.testing.assert_allclose(base - full, 2.0 * (g @ p.y) @ fam.jacobian,
                               rtol=1e-11, atol=1e-13)


def test_near_null_fiber_rejected():
    frame = field_frame(CART, UB, np.zeros(4))
    y_null = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(NullFiberError):
        fiber_parts(frame, ALPHA, y_null)
    # check=False path: values come back finite (integrator trial steps)
    parts = fiber_parts(frame, ALPHA, y_null + [1e-13, 0, 0, 0], check=False)
    assert np.isfinite(value_of(parts.N)).all()


def test_flat_magnetic_contortion_by_hand():
    # minkowski + uniform B: N = B1 = -(alpha/2)(eps l_j F^i + ||y|| F^i_j)
    y = np.array([1.0, 0.0, 0.0, 0.0])  # unit timelike, l = y
    p = phase_point(CART, np.zeros(4), y)
    cd = connection_data(CART, UB, ALPHA, p)
    F = np.zeros((4, 4))
    F[1, 2], F[2, 1] = 1.5, -1.5
    Fmix = np.diag([-1.0, 1, 1, 1]) @ F
    F_up = Fmix @ y  # zero: B field does no work on a particle at rest
    assert not F_up.any()
    want_N = -0.5 * ALPHA * Fmix  # l_j F^i term drops, ||y|| = 1
    np.testing.assert_allclose(cd.nonlinear, want_N, atol=1e-16)
    assert not cd.spray.any()
