import inspect
import re

import numpy as np
import pytest
from conftest import fd_gradient, fd_hessian

from tidalbundle import connection
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


def _stack(jets):
    """Stack per-item jets on a batch axis after the jet axes."""
    h = None if jets[0].h is None else np.stack([j.h for j in jets], axis=2)
    return Jet(np.stack([j.v for j in jets]),
               np.stack([j.d for j in jets], axis=1), h)


def _item(x, k):
    if not isinstance(x, Jet):
        return x[k]
    return Jet(x.v[k], x.d[:, k], None if x.h is None else x.h[:, :, k])


def test_jeinsum_broadcasts_per_item():
    # a batch axis leading the tensor slots: each item equals jeinsum on
    # that item bit for bit, whether the other operand is batched or not
    rng = np.random.default_rng(3)
    scales = rng.uniform(-2.0, 2.0, 3)
    for seed in (Jet.seed(Y, 4), Jet.from_pack(Y, np.eye(4), 4)):
        outer = jeinsum("i,j->ij", seed, seed)
        mats = [s * outer + G for s in scales]
        vecs = [s * seed for s in scales]
        batch_m, batch_v = _stack(mats), _stack(vecs)
        cases = (("ij,j->i", (batch_m, seed), lambda k: (mats[k], seed)),
                 ("ij,j->i", (batch_m, batch_v), lambda k: (mats[k], vecs[k])),
                 ("ij,j->i", (G, batch_v), lambda k: (G, vecs[k])),
                 ("ij,jk->ik", (batch_m, G), lambda k: (mats[k], G)),
                 ("ij->ji", (batch_m,), lambda k: (mats[k],)),
                 ("ij->ji", (np.stack([m.v for m in mats]),),
                  lambda k: (mats[k].v,)))
        for spec, ops, item in cases:
            got = jeinsum(spec, *ops)
            for k in range(len(scales)):
                want = jeinsum(spec, *item(k))
                part = _item(got, k)
                for a, b in ((value_of(part), value_of(want)),
                             *(((part.d, want.d), (part.h, want.h))
                               if isinstance(want, Jet) else ())):
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert np.asarray(a).tobytes() == \
                            np.asarray(b).tobytes(), spec


def _as_written(spec, *ops):
    """jeinsum's value and derivatives, from np.einsum on spec as written:
    the product rule term by term, summed in jeinsum's order."""
    lhs, out = spec.split("->")
    subs = lhs.split(",")
    vals = [value_of(x) for x in ops]
    jets = [k for k, x in enumerate(ops) if isinstance(x, Jet)]

    def term(lead):
        # operand k read as lead[k] = (jet component, its jet subscripts)
        specs = [lead[k][1] + s if k in lead else s for k, s in enumerate(subs)]
        arrs = [lead[k][0] if k in lead else v for k, v in enumerate(vals)]
        jet_out = "".join(sub for _, sub in lead.values())
        return np.einsum(",".join(specs) + "->" + jet_out + out, *arrs)

    v = np.einsum(spec, *vals)
    if not jets:
        return v, None, None
    d = sum(term({k: (ops[k].d, "Z")}) for k in jets)
    if ops[jets[0]].h is None:
        return v, d, None
    h = sum(term({k: (ops[k].h, "ZY")}) for k in jets)
    if len(jets) == 2:
        cross = term({0: (ops[0].d, "Z"), 1: (ops[1].d, "Y")})
        h = h + (cross + np.swapaxes(cross, 0, 1))
    return v, d, h


def test_unbatched_jeinsum_is_einsum_as_written():
    # the "..." that jeinsum puts before every subscript moves no bits on
    # operands without batch axes: every spec the connection contracts
    # with, on plain, order-1 and order-2 operands
    specs = set(re.findall(r'jeinsum\("([^"]+)"',
                           inspect.getsource(connection)))
    assert {"ij,j->i", "lk,ijl->ijk", "kij->ijk", "i,i->"} <= specs
    rng = np.random.default_rng(7)
    m = 3

    def operand(sub, kind):
        shape = (4,) * len(sub)
        v = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
        if kind == "plain":
            return v
        d = rng.uniform(0.5, 2.0, (m,) + shape)
        return Jet(v, d, None if kind == "order1"
                   else rng.uniform(0.5, 2.0, (m, m) + shape))

    for spec in sorted(specs):
        subs = spec.split("->")[0].split(",")
        for kinds in ([("plain",) * len(subs)]
                      + [(k,) * len(subs) for k in ("order1", "order2")]
                      + ([("order2", "plain"), ("plain", "order2"),
                          ("order1", "plain")] if len(subs) == 2 else [])):
            ops = [operand(sub, k) for sub, k in zip(subs, kinds)]
            got = jeinsum(spec, *ops)
            parts = (got.v, got.d, got.h) if isinstance(got, Jet) \
                else (got, None, None)
            for a, b in zip(parts, _as_written(spec, *ops)):
                assert (a is None) == (b is None), (spec, kinds)
                if a is not None:
                    assert np.asarray(a).tobytes() == \
                        np.asarray(b).tobytes(), (spec, kinds)
