import numpy as np
import pytest

from tidalbundle.connection import field_frame, fiber_parts
from tidalbundle.errors import NonFiniteFiberError, NullFiberError
from tidalbundle.fields import builtin_metric, builtin_potential
from tidalbundle.tensors import PhasePoint, norm_and_sign, null_tolerance

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def test_norm_and_sign_hand_values():
    # eta(y,y) = -4 + 1 = -3 for y = (2,1,0,0)
    nrm, eps = norm_and_sign(ETA, [2.0, 1.0, 0.0, 0.0])
    assert nrm == pytest.approx(np.sqrt(3.0))
    assert eps == -1
    # spacelike: eta(y,y) = -1 + 4 = 3
    nrm, eps = norm_and_sign(ETA, [1.0, 2.0, 0.0, 0.0])
    assert nrm == pytest.approx(np.sqrt(3.0))
    assert eps == 1


def test_null_vector_rejected():
    with pytest.raises(NullFiberError):
        norm_and_sign(ETA, [1.0, 1.0, 0.0, 0.0])
    # tol=0 disables the guard; exact zero still yields sign 0
    nrm, eps = norm_and_sign(ETA, [1.0, 1.0, 0.0, 0.0], tol=0.0)
    assert nrm == 0.0 and eps == 0


def test_null_tolerance_scales_with_components():
    assert null_tolerance([2000.0, 0, 0, 0]) == pytest.approx(1e-12 * 2000.0 ** 2)
    # past the float range of the square: inf, with no overflow warning
    with np.errstate(over="raise"):
        assert null_tolerance([1e200, 0, 0, 0]) == np.inf


def test_distinguished_section_unit_lengths():
    y = np.array([1.5, 0.2, -0.4, 0.1])
    frame = field_frame(builtin_metric("minkowski"),
                        builtin_potential("zero"), np.zeros(4))
    parts = fiber_parts(frame, 0.0, y)
    assert parts.l_low @ parts.l_up == pytest.approx(-1.0)  # timelike sign
    nrm, _ = norm_and_sign(ETA, y)
    np.testing.assert_allclose(parts.l_up * nrm, y)


def test_angular_metric_annihilates_fiber():
    frame = field_frame(builtin_metric("schwarzschild", {"M": 1.0}),
                        builtin_potential("zero"), [0.0, 5.0, 1.2, 0.3])
    g = frame.g
    rng = np.random.default_rng(7)
    for _ in range(5):
        y = rng.uniform(-1, 1, 4)
        y[0] = rng.uniform(1.5, 2.5)
        h = fiber_parts(frame, 0.0, y).h_low
        np.testing.assert_allclose(h @ y, np.zeros(4), atol=1e-14)
        # h is a rank-3 projector once an index is raised
        hmix = np.linalg.inv(g) @ h
        np.testing.assert_allclose(hmix @ hmix, hmix, atol=1e-14)
        assert np.trace(hmix) == pytest.approx(3.0)


def test_phase_point_caches_norm():
    p = PhasePoint.create(ETA, np.zeros(4), [2.0, 1.0, 0.0, 0.0])
    assert p.norm == pytest.approx(np.sqrt(3.0))
    assert p.causal_sign == -1
    np.testing.assert_array_equal(p.x, np.zeros(4))
    with pytest.raises(ValueError):
        PhasePoint.create(ETA, np.zeros(3), [2.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        PhasePoint.create(ETA, [0.0, np.nan, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0])


def test_phase_point_refuses_non_finite_fiber():
    # the finite-components check comes before the norm, which a NaN breaks
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            PhasePoint.create(ETA, np.zeros(4), [bad, 0.0, 0.0, 0.0])
    # finite components whose g(y,y) overflows: a package error
    with pytest.raises(NonFiniteFiberError, match="-inf is not finite"):
        PhasePoint.create(ETA, np.zeros(4), [1e300, 0.1, 0.0, 0.0])
