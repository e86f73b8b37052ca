import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import fd_gradient, fd_hessian

import tidalbundle
from tidalbundle import connection, dynamics, jets
from tidalbundle.curvature import tidal_packet
from tidalbundle.dynamics import IntegratorConfig, integrate_deviation_tidal
from tidalbundle.jets import Jet, jeinsum, jsqrt, value_of
from tidalbundle.scenario import DEFAULT_SUITE, builtin_scenario
from tidalbundle.verify import run_suite

G = np.array([[-1.0, 0.1, 0.0, 0.0],
              [0.1, 1.3, 0.2, 0.0],
              [0.0, 0.2, 0.9, -0.1],
              [0.0, 0.0, -0.1, 1.1]])
Y = np.array([1.4, 0.3, -0.5, 0.2])


@pytest.mark.parametrize("m, k", [(4, 4), (8, 4), (2, 4), (4, 2), (1, 1)])
def test_seed_is_the_identity_jet(m, k):
    # the seed's one zeroed stack equals the constructor's, value vec,
    # first derivatives np.eye(m, k), second derivatives zero
    vec = np.arange(1.0, k + 1.0)
    ref = Jet(vec, np.eye(m, k), np.zeros((m, m, k)))
    assert Jet.seed(vec, m).s.tobytes() == ref.s.tobytes()
    assert Jet.seed(vec, m).s.shape == ref.s.shape


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

    def total(terms):
        # two operands sum their terms onto zeros, so an exact -0.0 in d or
        # h comes out +0.0; one operand's derivatives are its einsum as is
        return sum(terms) if len(ops) == 2 else terms[0]

    v = np.einsum(spec, *vals)
    if not jets:
        return v, None, None
    d = total([term({k: (ops[k].d, "Z")}) for k in jets])
    if ops[jets[0]].h is None:
        return v, d, None
    h = total([term({k: (ops[k].h, "ZY")}) for k in jets])
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

    def draw(shape):
        # about a third of the entries exact +0.0 or -0.0, so that products
        # and sums of signed zeros pin where a -0.0 survives
        x = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
        return np.where(rng.random(shape) < 0.35,
                        rng.choice([0.0, -0.0], shape), x)

    def operand(sub, kind):
        shape = (4,) * len(sub)
        v = draw(shape)
        if kind == "plain":
            return v
        return Jet(v, draw((m,) + shape),
                   None if kind == "order1" else draw((m, m) + shape))

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


def _lift(x, jet_axes, rank):
    """A component with singleton tensor axes inserted after its jet axes."""
    if x is None:
        return None
    pad = rank + jet_axes - x.ndim
    return x.reshape(x.shape[:jet_axes] + (1,) * pad + x.shape[jet_axes:])


def _comps(x):
    """(v, d, h) of a Jet; a constant is (value, None, None)."""
    if isinstance(x, Jet):
        return x.v, x.d, x.h
    return np.asarray(x, dtype=float), None, None


def _pair(a, b):
    rank = max(np.ndim(a[0]), np.ndim(b[0]))
    return [(v, _lift(d, 1, rank), _lift(h, 2, rank)) for v, d, h in (a, b)]


def _add_written(a, b, sign=1.0):
    (av, ad, ah), (bv, bd, bh) = _pair(a, b)
    if sign < 0:
        bv, bd, bh = -bv, *(None if x is None else -x for x in (bd, bh))
    if ad is None:
        return av + bv, bd, bh
    if bd is None:
        return av + bv, ad, ah
    return av + bv, ad + bd, None if ah is None else ah + bh


def _mul_written(a, b):
    (av, ad, ah), (bv, bd, bh) = _pair(a, b)
    if ad is None:  # the jet first; a constant factor commutes
        (av, ad, ah), (bv, bd, bh) = (bv, bd, bh), (av, ad, ah)
    if bd is None:
        return av * bv, ad * bv, None if ah is None else ah * bv
    h = None if ah is None else (ah * bv + av * bh + ad[:, None] * bd[None, :]
                                 + ad[None, :] * bd[:, None])
    return av * bv, ad * bv + av * bd, h


def _reciprocal_written(a):
    av, ad, ah = a
    r = 1.0 / av
    h = None if ah is None else (-ah * r * r
                                 + 2.0 * ad[:, None] * ad[None, :] * r ** 3)
    return r, -ad * r * r, h


def _sqrt_written(a):
    av, ad, ah = a
    s = np.sqrt(av)
    h = None if ah is None else (ah / (2.0 * s)
                                 - ad[:, None] * ad[None, :] / (4.0 * s ** 3))
    return s, ad / (2.0 * s), h


def _div_written(a, b):
    if b[1] is None:
        return _mul_written(a, (1.0 / b[0], None, None))
    return _mul_written(a, _reciprocal_written(b))


def _assert_components(got, want, label):
    assert isinstance(got, Jet), label
    v, d, h = want
    m = got.m
    assert got.v.shape == np.shape(v) and d.shape[0] == m, label
    assert np.asarray(got.v).tobytes() == np.asarray(v).tobytes(), label
    assert got.d.shape == (m,) + got.v.shape, label
    assert got.d.tobytes() == np.broadcast_to(d, got.d.shape).tobytes(), label
    assert (got.h is None) == (h is None), label
    if h is not None:
        assert got.h.shape == (m, m) + got.v.shape, label
        assert got.h.tobytes() == \
            np.broadcast_to(h, got.h.shape).tobytes(), label


def test_jet_arithmetic_is_product_rule_as_written():
    # every operation, component by component, byte for byte: jet, array
    # and scalar operands; orders 1 and 2; a coupling batch axis (3) that
    # leads a tensor slot (4); lower-rank operands that broadcast; and
    # derivative entries that are exact +0.0 or -0.0
    rng = np.random.default_rng(11)
    m = 3

    def draw(shape, zeros=False):
        x = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
        if zeros:
            x = np.where(rng.random(shape) < 0.3,
                         rng.choice([0.0, -0.0], shape), x)
        return x

    def jet(shape, order):
        return Jet(draw(shape), draw((m,) + shape, True),
                   draw((m, m) + shape, True) if order == 2 else None)

    binary = {"+": (lambda a, b: a + b, _add_written),
              "-": (lambda a, b: a - b,
                    lambda a, b: _add_written(a, b, sign=-1.0)),
              "*": (lambda a, b: a * b, _mul_written),
              "/": (lambda a, b: a / b, _div_written)}
    for order in (1, 2):
        batch, slot = jet((3, 4), order), jet((4,), order)
        consts = (draw((3, 4)), draw((4,)), draw((3, 1)), 0.7, -2.0)
        pairs = [(batch, slot), (slot, batch), (batch, batch)]
        pairs += [(j, c) for j in (batch, slot) for c in consts]
        pairs += [(c, j) for j in (batch, slot) for c in consts]
        for a, b in pairs:
            for name, (op, written) in binary.items():
                label = (order, name, np.shape(_comps(a)[0]),
                         np.shape(_comps(b)[0]))
                _assert_components(op(a, b), written(_comps(a), _comps(b)),
                                   label)
        for x in (batch, slot):
            _assert_components(x.reciprocal(),
                               _reciprocal_written(_comps(x)), order)
            pos = x * x + 1.0
            _assert_components(pos.sqrt(), _sqrt_written(_comps(pos)), order)
            _assert_components(-x, (-x.v, -x.d,
                                    None if x.h is None else -x.h), order)
        for idx in (1, (Ellipsis, 2), (slice(0, 2),), (1, slice(1, 3))):
            part = batch[idx]
            full = (slice(None),) + (idx if isinstance(idx, tuple) else (idx,))
            _assert_components(part, (batch.v[idx], batch.d[full],
                                      None if order == 1
                                      else batch.h[(slice(None),) + full]),
                               idx)


def _record_einsum(monkeypatch):
    """Wrap the einsum binding wherever a tidalbundle module holds it.

    Each call runs both the binding and np.einsum on the same operands and
    returns the binding's result; the record keeps, per call, the spec,
    the operand shapes and whether the two results are the same bytes.
    """
    seen = []
    binding = jets.einsum

    def recorded(spec, *ops):
        got, want = binding(spec, *ops), np.einsum(spec, *ops)
        same = (type(got) is type(want)
                and np.shape(got) == np.shape(want)
                and np.asarray(got).dtype == np.asarray(want).dtype
                and np.asarray(got).tobytes() == np.asarray(want).tobytes())
        seen.append((spec, tuple(np.shape(op) for op in ops), same))
        return got

    for name, module in list(sys.modules.items()):
        if (name == "tidalbundle" or name.startswith("tidalbundle.")) \
                and getattr(module, "einsum", None) is binding:
            monkeypatch.setattr(module, "einsum", recorded)
    return seen


def _kinds(spec, shapes):
    """The operand kinds one recorded call covers: "plain" (no jet stack
    axis Z), "order1" or "order2" (the stack length of a fiber seed, 1 + 4
    + 16, is order 2), and "batched" when "..." absorbs an axis."""
    kinds = set()
    subs = spec.split("->")[0].split(",")
    if "Z" not in spec:
        kinds.add("plain")
    for sub, shape in zip(subs, shapes):
        if len(shape) > len(sub.replace("...", "")):
            kinds.add("batched")
        if sub.startswith("Z") and not sub.startswith("ZY"):
            kinds.add("order2" if shape[0] == 1 + 4 + 16 else "order1")
    return kinds


def test_einsum_binding_matches_np_einsum_bytes(monkeypatch):
    # every spec the engine contracts while it judges one suite point per
    # default scenario, reads a tidal packet and a covariant derivative and
    # evaluates worldline and deviation right-hand sides gives the bytes of
    # np.einsum on the same operands
    seen = _record_einsum(monkeypatch)
    run_suite([builtin_scenario(sid) for sid in DEFAULT_SUITE], points=1,
              seed=0)
    rn = builtin_scenario("reissner_nordstrom")
    args = (rn.metric, rn.potential, rn.alpha, rn.initial_point)
    tidal_packet(*args)
    connection.d_covariant_derivative(*args, connection.contortion_vector)
    p = rn.initial_point
    dynamics.worldline_rhs(rn.metric, rn.potential, rn.alpha, p.x, p.y)
    # one rk4 substep: four deviation right-hand sides
    integrate_deviation_tidal(*args, [0.0, 0.1, 0.0, 0.0], np.zeros(4),
                              IntegratorConfig(method="rk4-fixed",
                                               t_span=(0.0, 0.5), samples=2,
                                               step=0.5))
    assert len({spec for spec, _, _ in seen}) > 100
    assert [(spec, shapes) for spec, shapes, same in seen if not same] == []
    covered = set().union(*(_kinds(spec, shapes) for spec, shapes, _ in seen))
    assert covered == {"plain", "order1", "order2", "batched"}


def test_einsum_binding_is_numpy_kernel():
    # where numpy exposes its einsum kernel the package binds it, so no
    # contraction pays np.einsum's dispatch wrapper
    try:
        from numpy._core.multiarray import c_einsum
    except ImportError:
        pytest.skip("numpy exposes no numpy._core.multiarray.c_einsum")
    assert jets.einsum is c_einsum


def test_only_jets_calls_np_einsum():
    # every contraction goes through the one binding in jets
    offenders = []
    for path in Path(tidalbundle.__file__).parent.rglob("*.py"):
        if path.name == "jets.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "einsum"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                offenders.append((path.name, node.lineno))
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("numpy")
                    and any(a.name in ("einsum", "c_einsum")
                            for a in node.names)):
                offenders.append((path.name, node.lineno))
    assert offenders == []


def test_import_raises_no_warning():
    # numpy 2 warns on importing numpy.core.multiarray, so the einsum
    # binding tries numpy._core first; -W error turns any warning into a
    # failure
    src = Path(tidalbundle.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import tidalbundle, tidalbundle.cli"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
