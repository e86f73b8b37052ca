import numpy as np
import pytest
from conftest import fd_gradient, fd_hessian

from tidalbundle.jets import Jet, jeinsum, jsqrt, value_of

G = np.array([[-1.0, 0.1, 0.0, 0.0],
              [0.1, 1.3, 0.2, 0.0],
              [0.0, 0.2, 0.9, -0.1],
              [0.0, 0.0, -0.1, 1.1]])
Y = np.array([1.4, 0.3, -0.5, 0.2])


def test_seed_layout():
    j = Jet.seed(Y, 4)
    assert np.array_equal(j.v, Y)
    assert np.array_equal(j.d, np.eye(4))
    assert not j.h.any()


def test_quadratic_form_exact_derivatives():
    # q = g_ab y^a y^b: dq/dy = 2 g y, d2q/dy2 = 2 g (g symmetric)
    j = Jet.seed(Y, 4)
    q = jeinsum("ab,b->a", G, j)
    q = jeinsum("a,a->", q, j)
    assert q.v == pytest.approx(G @ Y @ Y)
    np.testing.assert_allclose(q.d, 2.0 * G @ Y, rtol=1e-15)
    np.testing.assert_allclose(q.h, 2.0 * G, rtol=1e-15)


def test_outer_product_cross_terms():
    j = Jet.seed(Y, 4)
    outer = jeinsum("i,j->ij", j, j)
    eye = np.eye(4)
    want_d = np.einsum("ai,j->aij", eye, Y) + np.einsum("i,aj->aij", Y, eye)
    want_h = (np.einsum("ai,bj->abij", eye, eye)
              + np.einsum("aj,bi->abij", eye, eye))
    np.testing.assert_allclose(outer.d, want_d, rtol=0, atol=0)
    np.testing.assert_allclose(outer.h, want_h, rtol=0, atol=0)


def _scalar_chain(y):
    # nontrivial composition: sqrt(|q|) times a rational factor
    q = y @ G @ y
    return np.sqrt(abs(q)) * (1.0 + (y[0] * y[1] - 0.3 * y[2]) / (2.0 + q * q))


def _chain_jet(j):
    """_scalar_chain evaluated on a seeded jet."""
    q = jeinsum("a,a->", jeinsum("ab,b->a", G, j), j)
    s = jsqrt(-1.0 * q)  # q < 0 at Y, so |q| = -q
    assert q.v < 0
    rat = (j[0] * j[1] - 0.3 * j[2]) / (2.0 + q * q)
    return s * (1.0 + rat)


def test_chain_rule_against_finite_differences():
    f = _chain_jet(Jet.seed(Y, 4))
    assert f.v == pytest.approx(_scalar_chain(Y), rel=1e-14)
    np.testing.assert_allclose(f.d, fd_gradient(_scalar_chain, Y),
                               rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(f.h, fd_hessian(_scalar_chain, Y),
                               rtol=1e-5, atol=1e-6)


def test_reciprocal_against_finite_differences():
    def fn(y):
        return 1.0 / (2.0 + y @ G @ y)

    j = Jet.seed(Y, 4)
    q = jeinsum("a,a->", jeinsum("ab,b->a", G, j), j)
    r = 1.0 / (2.0 + q)
    np.testing.assert_allclose(r.d, fd_gradient(fn, Y), rtol=1e-8)
    np.testing.assert_allclose(r.h, fd_hessian(fn, Y), rtol=1e-5)


def test_from_pack_direction_placement():
    # lift a base field into directions 4..7 of an 8-direction jet
    d1 = np.arange(4.0)[:, None] * np.ones(4)
    j = Jet.from_pack(Y, d1, m=8, start=4)
    assert j.d[:4].max() == 0.0
    np.testing.assert_array_equal(j.d[4:], d1)
    assert j.h is None


def test_order_one_matches_order_two_bitwise():
    # dropping h must not touch the value or first-derivative arithmetic
    f2 = _chain_jet(Jet.seed(Y, 4))
    f1 = _chain_jet(Jet.from_pack(Y, np.eye(4), 4))
    assert f1.h is None
    assert np.array_equal(f1.v, f2.v)
    assert np.array_equal(f1.d, f2.d)


def test_mixed_orders_rejected():
    j2 = Jet.seed(Y, 4)
    j1 = Jet.from_pack(Y, np.eye(4), 4)
    for op in (lambda: j1 + j2, lambda: j2 * j1, lambda: j1 / j2,
               lambda: jeinsum("i,j->ij", j1, j2)):
        with pytest.raises(ValueError, match="orders differ"):
            op()


def test_getitem_keeps_jet_axes():
    j = Jet.seed(Y, 4)
    outer = jeinsum("i,j->ij", j, j)
    row = outer[1]
    np.testing.assert_allclose(row.v, Y[1] * Y)
    np.testing.assert_allclose(row.d, outer.d[:, 1])
    np.testing.assert_allclose(row.h, outer.h[:, :, 1])


def test_reserved_subscripts_rejected():
    with pytest.raises(ValueError):
        jeinsum("Zi->i", np.ones(4))


def test_plain_array_passthrough():
    a = np.array([4.0, 9.0])
    np.testing.assert_array_equal(jsqrt(a), [2.0, 3.0])
    np.testing.assert_array_equal(value_of(a), a)
    assert jeinsum("i,i->", a, a) == pytest.approx(97.0)


def test_mixed_jet_and_constant_operand():
    j = Jet.seed(Y, 4)
    out = jeinsum("ab,b->a", G, j)
    np.testing.assert_allclose(out.v, G @ Y)
    np.testing.assert_allclose(out.d, np.einsum("ab->ba", G))
    assert not out.h.any()
