import itertools

import numpy as np
import pytest
from conftest import count_contractions, fd_gradient

from tidalbundle import dynamics
from tidalbundle.connection import (FieldFrame, PhaseFieldSpec, Sample,
                                    _b3_brackets, connection_data,
                                    contortion_vector, d_covariant_derivative,
                                    field_frame, fiber_parts, phase_context,
                                    phase_point, strong_torsion,
                                    unit_direction_low)
from tidalbundle.dynamics import (IntegratorConfig, integrate_deviation_tidal,
                                  worldline_rhs)
from tidalbundle.errors import NullFiberError
from tidalbundle.fields import (builtin_metric, builtin_potential,
                                metric_from_callable, potential_from_callable)
from tidalbundle.jets import Jet, jeinsum, value_of
from tidalbundle.scenario import BUILTIN_IDS, builtin_scenario
from tidalbundle.tensors import norm_and_sign
from tidalbundle.verify import DEFAULT_ALPHAS, sample_phase_points

RN = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
COULOMB = builtin_potential("coulomb", {"Q": 0.5})
CART = builtin_metric("minkowski")
UB = builtin_potential("uniform_b", {"B": 1.5, "axis": "z"})

X = np.array([0.0, 8.0, 1.2, 0.4])
Y = np.array([1.3, 0.1, 0.02, 0.01])
ALPHA = 0.8


# Scalar phase fields: a scalar's covariant derivative is its adapted
# derivative delta_k = d/dx^k - N^l_k d/dy^l, with no connection terms.
FIBER_SQUARE = PhaseFieldSpec(
    "", lambda ctx: jeinsum("i,i->", jeinsum("ij,j->i", ctx.g, ctx.y), ctx.y))
FIBER_COMPONENTS = [PhaseFieldSpec("", lambda ctx, i=i: ctx.y[i])
                    for i in range(4)]


def _rn_point(y=Y):
    return phase_point(RN, X, y)


def _contortion(alpha=ALPHA):
    return connection_data(RN, COULOMB, alpha, _rn_point()).contortion


def test_contortion_orthogonal_to_fiber():
    # y_i B^i = 0: the charge term never feeds the fiber direction
    p = _rn_point()
    fam = _contortion()
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
    B3 = _contortion().third
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
    fam = _contortion()
    got = d_covariant_derivative(RN, COULOMB, ALPHA, p, FIBER_SQUARE)
    np.testing.assert_allclose(got, 2.0 * g @ fam.vector,
                               rtol=1e-11, atol=1e-14)
    assert abs(got @ p.y) < 1e-13


def test_adapted_derivative_of_fiber_velocity():
    # delta_k y^i = -N^i_k: the fiber coordinate field measures the
    # nonlinear connection
    p = _rn_point()
    N = connection_data(RN, COULOMB, ALPHA, p).nonlinear
    sample = Sample(field_frame(RN, COULOMB, X), ALPHA, p.y)
    got = np.stack([sample.covariant(f) for f in FIBER_COMPONENTS])
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
    names = ("y", "g", "l_up", "l_low", "B", "B1", "N", "n1", "Gaff",
             "h_low", "G")
    jets = [getattr(ctx, k) for k in names]
    assert all(isinstance(j, Jet) and j.h is None and j.m == 8 for j in jets)


def test_third_contortion_built_only_on_demand():
    frame = field_frame(RN, COULOMB, X)
    parts = fiber_parts(frame, ALPHA, Y)
    parts.E   # the curvature channel does not read B^i_jkl
    assert "B3" not in vars(parts)
    np.testing.assert_array_equal(parts.B3, _contortion().third)
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
    assert not built & {"dgamma", "dginv", "dFmix", "B2", "B3", "h_low", "E",
                        "b", "b2", "dn1", "db1"}


CURVATURE_TERMS = {"dn1", "db1", "dnrm", "dF_up", "b2", "h_low"}


@pytest.mark.parametrize("sid, skipped", [
    ("cyclotron", {"dn1", "db1", "dnrm", "dF_up"}),
    ("schwarzschild_circular", {"b2", "h_low", "db1", "dnrm", "dF_up"}),
    ("reissner_nordstrom", set()),
])
def test_deviation_rhs_builds_only_what_is_nonzero(monkeypatch, sid,
                                                   skipped):
    # the curvature of N skips the terms the frame declares zero: the flat
    # uniform cyclotron has no dN, the field-free circular orbit no
    # contortion in G^i_jk; reissner_nordstrom declares nothing and builds
    # every term (the bypass control)
    seen = []

    def spy(frame, alpha, y, **kw):
        seen.append(fiber_parts(frame, alpha, y, **kw))
        return seen[-1]

    monkeypatch.setattr(dynamics, "fiber_parts", spy)
    sc = builtin_scenario(sid)
    if sc.w0 is None:
        init, w0, v0 = _rn_point(), [0.0, 0.1, 0.0, 0.02], [0, 0, 0.01, 0]
    else:
        init, w0, v0 = sc.initial_point, sc.w0, sc.v0
    cfg = IntegratorConfig(method="rk4-fixed", t_span=(0.0, 1e-3), samples=2,
                           step=1e-3)
    integrate_deviation_tidal(sc.metric, sc.potential, sc.alpha, init, w0, v0,
                              cfg)
    assert len(seen) == 4
    for parts in seen:
        built = set(vars(parts)) | set(vars(parts.frame))
        assert "E" in built
        assert not built & skipped, sid
        assert CURVATURE_TERMS - skipped <= built, sid


FACTS = ("flat", "uniform", "field_free")
DECLARING = ("flat_vacuum", "flat_uniform_b", "schwarzschild_vacuum",
             "flat_gauge", "cyclotron", "schwarzschild_circular",
             "negative_control", "uniform_b B=0")
SKIP_NAMES = ("F_up", "B", "B1", "B2", "B3", "N", "Gaff", "G", "dB", "dB1",
              "R3", "E", "Fmix")
FRAME_SKIP_NAMES = ("Fmix", "dFmix")
# a spacelike fiber at every sampled point: eps sets the signed zeros of
# b1 and B^i_jkl on a field-free frame, and the sampler draws timelike
# fibers only
SPACELIKE = np.array([0.3, 1.1, 0.07, 0.05])


def _facts(frame):
    return tuple(getattr(frame, fact) for fact in FACTS)


def _skip_cases():
    """(label, scenario to sample, metric, potential): every built-in, and
    flat_uniform_b's sampling with its field at B = 0, whose pack reports
    F zero."""
    for sid in BUILTIN_IDS:
        sc = builtin_scenario(sid)
        yield sid, sc, sc.metric, sc.potential
    sc = builtin_scenario("flat_uniform_b")
    yield ("uniform_b B=0", sc, sc.metric,
           builtin_potential("uniform_b", {"B": 0.0}))


def test_declared_zeros_skip_bit_for_bit(monkeypatch):
    # every tensor the skips touch equals the full path's bit for bit, on
    # every tier, on both causal signs, at one coupling and over a batch;
    # the full path reads a frame of its own, so its F^i_j is contracted
    for sid, sc, metric, potential in _skip_cases():
        for p in sample_phase_points(sc, 2, np.random.default_rng(8)):
            frame = field_frame(metric, potential, p.x)
            assert any(_facts(frame)) is (sid in DECLARING), sid
            if not any(_facts(frame)):
                continue
            with monkeypatch.context() as m:
                for fact in FACTS:
                    m.setattr(FieldFrame, fact, property(lambda _: False))
                full_frame = field_frame(metric, potential, p.x)
                for name in FRAME_SKIP_NAMES:
                    getattr(full_frame, name)
            for name in FRAME_SKIP_NAMES:
                assert _bits(getattr(frame, name)) == \
                    _bits(getattr(full_frame, name)), (sid, name)
            fibers = (p.y, SPACELIKE)
            assert [norm_and_sign(frame.g, y)[1] for y in fibers] == [-1, 1]
            for y, alpha in itertools.product(
                    fibers, (ALPHA, np.array(DEFAULT_ALPHAS))):
                skip = [{n: getattr(build(alpha), n) for n in SKIP_NAMES}
                        for build in _tiers(frame, y)]
                with monkeypatch.context() as m:
                    for fact in FACTS:
                        m.setattr(FieldFrame, fact, property(lambda _: False))
                    full = [{n: getattr(build(alpha), n) for n in SKIP_NAMES}
                            for build in _tiers(full_frame, y)]
                for tier, (got, want) in enumerate(zip(skip, full)):
                    for name in SKIP_NAMES:
                        assert _bits(got[name]) == _bits(want[name]), \
                            (sid, tier, name, y[0], np.shape(alpha))


# the contractions that read F and only F: F^i_j and its base derivative
# on the frame, and the brackets b1, b2, db (through dF^i) and db1.  F^i
# shares its spec with l_low, so it is not counted here.
F_SPECS = {"ia,aj->ij", "kia,aj->kij", "ia,kaj->kij",
           "j,i->ij",
           "jk,i->ijk", "j,ik->ijk", "k,ij->ijk",
           "kij,j->ki", "k,i->ki",
           "ja,a->j", "kja,a->kj", "k,j->kj", "kj,i->kij", "j,ki->kij",
           "k,ij->kij",
           "_b3_brackets"}


@pytest.mark.parametrize("case", ["schwarzschild_vacuum", "flat_gauge",
                                  "uniform_b B=0", "reissner_nordstrom"])
def test_field_free_tiers_contract_no_field(monkeypatch, case):
    # a field-free frame runs none of the field's contractions on any
    # tier, whatever is read, on both causal signs and over a batch;
    # reissner_nordstrom (the control) runs every one of them
    (sc, metric, potential), = [c[1:] for c in _skip_cases() if c[0] == case]
    specs = count_contractions(monkeypatch)
    for p in sample_phase_points(sc, 2, np.random.default_rng(8)):
        frame = field_frame(metric, potential, p.x)
        assert frame.field_free is (case != "reissner_nordstrom")
        for y in (p.y, SPACELIKE):
            for alpha in (ALPHA, np.array(DEFAULT_ALPHAS)):
                for build in _tiers(frame, y):
                    parts = build(alpha)
                    for name in SKIP_NAMES:
                        getattr(parts, name)
    ran = F_SPECS & set(specs)
    assert ran == (F_SPECS if case == "reissner_nordstrom" else set()), case


def test_callable_fields_declare_nothing():
    # a callable Minkowski and a callable uniform field are the catalog
    # pair of flat_uniform_b, but their packs report no zeros.  Paired
    # with each other or with the catalog fields, the curvature of N skips
    # only what the catalog side reports, and E equals that of the pair it
    # mirrors.  A non-uniform callable field on the catalog Minkowski
    # skips dn1 but still reads db1
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    metric = metric_from_callable(
        lambda x: jeinsum("ij,->ij", eta, 1.0 + 0.0 * x[0]))
    b_z = np.array([0.0, 0.0, 1.5, 0.0])
    potential = potential_from_callable(lambda x: jeinsum("i,->i", b_z, x[1]))
    c = np.array([0.3, 0.05, 0.0, 0.02])
    quadratic = potential_from_callable(lambda x: jeinsum(
        "i,->i", c, x[1] * x[1] + x[2] * x[2] + x[3] * x[3]))
    sc = builtin_scenario("flat_uniform_b")
    catalog = (sc.metric, sc.potential)
    pairs = (((metric, potential), catalog), ((sc.metric, potential), catalog),
             ((metric, sc.potential), catalog),
             ((sc.metric, quadratic), (metric, quadratic)))
    for p in sample_phase_points(sc, 3, np.random.default_rng(9)):
        for field in (metric, potential, quadratic):
            assert field.pack(p.x).zeros == frozenset()
        for (m, a), mirror in pairs:
            frame = field_frame(m, a, p.x)
            assert _facts(frame) == (m is sc.metric, a is sc.potential, False)
            ref_frame = field_frame(*mirror, p.x)
            for alpha in (ALPHA, np.array(DEFAULT_ALPHAS)):
                for build, ref in zip(_tiers(frame, p.y),
                                      _tiers(ref_frame, p.y)):
                    parts, want = build(alpha), ref(alpha)
                    E = parts.E
                    built = set(vars(parts))
                    assert ("dn1" in built) is not frame.flat
                    assert ("db1" in built) is not (frame.flat
                                                    and frame.uniform)
                    # measured: every pairing agrees exactly, -0.0 == 0.0
                    for got, exp in zip(_channels(E), _channels(want.E)):
                        np.testing.assert_array_equal(got, exp)


def test_frame_built_from_packs_reads_their_facts():
    # the facts are the packs' own: the frame's constructor takes none,
    # and a frame built directly from the packs reads what field_frame's
    # reads, on a frame that skips and on one that does not
    for sid, want in (("cyclotron", (True, True, False)),
                      ("flat_gauge", (True, True, True)),
                      ("reissner_nordstrom", (False, False, False))):
        sc = builtin_scenario(sid)
        x = sc.initial_point.x
        packs = (sc.metric.pack(x), sc.potential.pack(x))
        with pytest.raises(TypeError):
            FieldFrame(*packs, frozenset({"dg"}))
        with pytest.raises(TypeError):
            FieldFrame(*packs, zeros=frozenset({"dg"}))
        assert _facts(FieldFrame(*packs)) == want, sid
        assert _facts(field_frame(sc.metric, sc.potential, x)) == want, sid


def _channels(x):
    return [a for a in (x.v, x.d, x.h) if a is not None] \
        if isinstance(x, Jet) else [x]


def _bits(x):
    """Every array of a value or Jet as bytes, so -0.0 differs from 0.0."""
    if isinstance(x, Jet):
        return tuple(_bits(a) for a in (x.v, x.d, x.h) if a is not None)
    return np.asarray(x, dtype=float).tobytes()


BATCH_NAMES = ("N", "B", "B1", "B2", "B3", "Gaff", "G", "dB", "dB1",
               "R3", "E")


def _tiers(frame, y):
    """Builders of the plain, fiber-jet and phase tier at a coupling."""
    return (lambda a: fiber_parts(frame, a, y),
            lambda a: fiber_parts(frame, a, Jet.seed(y, 4)),
            lambda a: phase_context(frame, a, y))


def _coupling(x, k):
    """Coupling k of a batched value or Jet (the axis after the jet axes)."""
    if isinstance(x, Jet):
        return Jet(x.v[k], x.d[:, k], None if x.h is None else x.h[:, :, k])
    return x[k]


def test_batched_tier_matches_each_coupling():
    # one pass over every coupling equals the per-coupling builds bit for
    # bit, value and fiber or phase derivatives alike
    alphas = np.array(DEFAULT_ALPHAS)
    for sid in ("reissner_nordstrom", "flat_coulomb", "flat_uniform_b"):
        sc = builtin_scenario(sid)
        for p in sample_phase_points(sc, 2, np.random.default_rng(7)):
            frame = field_frame(sc.metric, sc.potential, p.x)
            for build in _tiers(frame, p.y):
                batch = build(alphas)
                for k, alpha in enumerate(DEFAULT_ALPHAS):
                    one = build(alpha)
                    for name in BATCH_NAMES:
                        assert _bits(_coupling(getattr(batch, name), k)) == \
                            _bits(getattr(one, name)), (sid, name, alpha)


def test_batched_phase_fields_match_each_coupling():
    # a phase field's covariant derivative over every coupling at once
    # equals the one-coupling samples bit for bit: the built-in fields,
    # and a scalar that indexes a slot the batch-safe way
    b_time = PhaseFieldSpec("", lambda ctx: ctx.B[..., 0])
    for sid in ("reissner_nordstrom", "flat_coulomb", "flat_uniform_b"):
        sc = builtin_scenario(sid)
        for p in sample_phase_points(sc, 2, np.random.default_rng(3)):
            frame = field_frame(sc.metric, sc.potential, p.x)
            batch = Sample(frame, np.array(DEFAULT_ALPHAS), p.y)
            for field in (unit_direction_low, contortion_vector, b_time):
                for reference in ("full", "base"):
                    got = batch.covariant(field, reference)
                    for k, alpha in enumerate(DEFAULT_ALPHAS):
                        one = Sample(frame, alpha, p.y).covariant(field,
                                                                  reference)
                        assert _bits(got[k]) == _bits(one), (sid, alpha)


def test_phase_field_leading_axes_checked():
    # a build whose value leads with anything but the coupling axis is
    # refused by name, instead of a broadcast error or a silent broadcast
    frame = field_frame(RN, COULOMB, X)
    batch = Sample(frame, np.array(DEFAULT_ALPHAS), Y)
    one = Sample(frame, ALPHA, Y)
    picks_a_coupling = PhaseFieldSpec("", lambda ctx: ctx.B[0])
    extra_axis = PhaseFieldSpec("d", lambda ctx: ctx.l_low[None])
    for sample, field in ((batch, picks_a_coupling), (batch, extra_axis),
                          (one, extra_axis)):
        with pytest.raises(ValueError, match="phase field PhaseFieldSpec"):
            sample.covariant(field)


def test_phase_field_variance_is_rank_0_or_1():
    # a field of rank 2 or more, or with a slot that is not u or d, is
    # refused when it is declared, before any build
    for variance in ("ud", "uu", "dd", "x", "U", "du"):
        with pytest.raises(ValueError, match="variance must be"):
            PhaseFieldSpec(variance, lambda ctx: ctx.N)
    for variance in ("", "u", "d"):
        assert PhaseFieldSpec(variance, None).variance == variance


def test_phase_field_on_dim_couplings():
    # on exactly DIM couplings a picked slot is as long as the coupling
    # axis; the pick is still refused, and the batch-safe spelling still
    # equals each coupling bit for bit
    alphas = np.array([-1.0, 0.5, 1.0, 3.0])
    assert len(alphas) == 4
    frame = field_frame(RN, COULOMB, np.array([0.0, 8.0, 1.2, 0.4]))
    batch = Sample(frame, alphas, Y)
    with pytest.raises(ValueError, match="phase field PhaseFieldSpec"):
        batch.covariant(PhaseFieldSpec("", lambda ctx: ctx.B[0]))
    b_time = PhaseFieldSpec("", lambda ctx: ctx.B[..., 0])
    for field in (b_time, unit_direction_low, contortion_vector):
        got = batch.covariant(field)
        for k, alpha in enumerate(alphas):
            one = Sample(frame, alpha, Y).covariant(field)
            assert _bits(got[k]) == _bits(one), (field, alpha)


def test_curvature_of_n_takes_one_product():
    # R3 forms N^l_k G^i_jl once and transposes it for N^l_j G^i_kl; that
    # equals the two-product form bit for bit
    for sid in ("reissner_nordstrom", "flat_coulomb", "flat_uniform_b",
                "schwarzschild_vacuum"):
        sc = builtin_scenario(sid)
        for p in sample_phase_points(sc, 2, np.random.default_rng(5)):
            frame = field_frame(sc.metric, sc.potential, p.x)
            for build in _tiers(frame, p.y)[:2]:
                for alpha in DEFAULT_ALPHAS:
                    parts = build(alpha)
                    dN = parts.dn1 + parts.dB1
                    N, Gaff = parts.N, parts.Gaff
                    two = (jeinsum("kij->ijk", dN) - jeinsum("jik->ijk", dN)
                           - jeinsum("lk,ijl->ijk", N, Gaff)
                           + jeinsum("lj,ikl->ijk", N, Gaff))
                    assert _bits(parts.R3) == _bits(two), (sid, alpha)


def test_value_only_third_contortion_on_jet_tier():
    # the jet tier's B3 replays the jet arithmetic on values alone: it
    # equals the value of an order-2 Jet build bit for bit
    for sid in ("reissner_nordstrom", "flat_coulomb", "flat_uniform_b",
                "schwarzschild_vacuum"):
        sc = builtin_scenario(sid)
        for p in sample_phase_points(sc, 3, np.random.default_rng(4)):
            frame = field_frame(sc.metric, sc.potential, p.x)
            for alpha in (-1.0, 0.0, 0.5, 3.0):
                parts = fiber_parts(frame, alpha, Jet.seed(p.y, 4))
                over_nrm, over_nrm2 = _b3_brackets(parts.h_low, parts.l_low,
                                                   parts.Fmix, parts.F_up)
                half_eps = -0.5 * alpha * parts.eps
                nrm = parts.nrm
                jet = (half_eps * over_nrm / nrm
                       - (half_eps * parts.eps) * over_nrm2 / (nrm * nrm))
                assert isinstance(jet, Jet) and jet.h is not None
                assert _bits(parts.B3) == _bits(jet.v), (sid, alpha)


def test_tiers_read_the_frame_mixed_field_strength():
    # F^i_j is built once per point, on the frame: the plain and jet tiers
    # hold the frame's array, and the phase tier lifts it with the frame's
    # base derivatives and no fiber dependence
    for sid in ("reissner_nordstrom", "flat_coulomb", "flat_uniform_b"):
        sc = builtin_scenario(sid)
        for p in sample_phase_points(sc, 2, np.random.default_rng(6)):
            frame = field_frame(sc.metric, sc.potential, p.x)
            plain, jet, phase = (build(ALPHA) for build in _tiers(frame, p.y))
            assert plain.Fmix is frame.Fmix
            assert jet.Fmix is frame.Fmix
            Fmix = phase.Fmix
            assert isinstance(Fmix, Jet) and Fmix.m == 8
            assert _bits(Fmix.v) == _bits(frame.Fmix)
            assert _bits(Fmix.d[:4]) == _bits(frame.dFmix)
            assert not Fmix.d[4:].any()


def test_base_reference_recovers_metric_compatibility():
    # horizontal transport with the Levi-Civita reference preserves the
    # fiber square exactly; the full connection shifts it by the
    # contortion, base - full = 2 y_i B1^i_k
    p = _rn_point()
    full = d_covariant_derivative(RN, COULOMB, ALPHA, p, FIBER_SQUARE)
    base = d_covariant_derivative(RN, COULOMB, ALPHA, p, FIBER_SQUARE,
                                  reference="base")
    np.testing.assert_allclose(base, np.zeros(4), atol=1e-13)
    fam = _contortion()
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
