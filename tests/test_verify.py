import dataclasses
import json
import math
import re
import warnings
from collections import Counter
from functools import reduce
from pathlib import Path
from types import SimpleNamespace
from importlib import resources

import numpy as np
import pytest
from conftest import count_builds
from hypothesis import given
from hypothesis import strategies as st

from tidalbundle.connection import (connection_data, d_covariant_derivative,
                                    field_frame, phase_point, strong_torsion,
                                    unit_direction_low)
from tidalbundle.curvature import tidal_packet, trace_decomposition
from tidalbundle import verify
from tidalbundle.errors import ChartDomainError, ScenarioError
from tidalbundle.fields import metric_from_callable
from tidalbundle.jets import jeinsum, value_of
from tidalbundle.scenario import (BUILTIN_IDS, DEFAULT_SUITE, builtin_scenario,
                                 builtin_scenarios)
from tidalbundle.verify import (CHECKS, DEFAULT_ALPHAS, TOLERANCES, _Bench,
                                _checks, _einstein, _maxwell_homogeneous,
                                _maxwell_inhomogeneous, _plans, _Row,
                                _scale, _structural, alpha_sweep,
                                expected_rows, report_json,
                                report_summary_table, run_suite,
                                sample_phase_points)


def _suite(points=3, seed=5, **kw):
    return run_suite(builtin_scenarios(), points=points, seed=seed, **kw)


def test_default_suite_passes():
    report = _suite()
    assert report["summary"]["fail"] == 0
    assert report["summary"]["pass"] > 0
    assert report["summary"]["max_rel_residual"] < 1e-9


def test_reports_are_deterministic():
    a = report_json(_suite())
    b = report_json(_suite())
    assert a == b
    # different seed samples different points
    c = report_json(_suite(seed=6))
    assert a != c


def test_report_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")    # a test extra
    report = _suite(points=2)
    schema = json.loads(resources.files("tidalbundle")
                        .joinpath("schemas/report.schema.json").read_text())
    jsonschema.validate(report, schema)
    # and survives a JSON round trip unchanged
    assert json.loads(report_json(report)) == report
    # each sampled point once, each check name once
    assert report["schema"] == 2
    rng = np.random.default_rng(5)
    sampled = [(sc.id, k, p)
               for sc in sorted(builtin_scenarios(), key=lambda sc: sc.id)
               for k, p in enumerate(sample_phase_points(sc, 2, rng))]
    assert len(report["points"]) == len(sampled)
    for entry, (sid, k, p) in zip(report["points"], sampled):
        assert entry == {"scenario": sid, "point": k, "x": p.x.tolist(),
                         "y": p.y.tolist(), "causal_sign": p.causal_sign,
                         "conditioning": max(abs(p.y)) ** 2 / p.norm ** 2}
    summary = report["check_summary"]
    assert set(summary) == {c["check"] for c in report["checks"]}
    for name, entry in summary.items():
        rows = [c for c in report["checks"] if c["check"] == name]
        assert entry["tol"] == TOLERANCES[name]
        assert entry["worst_rel"] == max(c["rel_residual"] for c in rows)
        assert entry["headroom"] == entry["worst_rel"] / entry["tol"]
        assert entry["failures"] == sum(not c["passed"] for c in rows)
    # every table refuses a stray key, the v1 row copies among them
    bad = json.loads(report_json(report))
    row, point = bad["checks"][0], bad["points"][0]
    for entry, key in ((row, "x"), (row, "tol"), (point, "tol"),
                       (bad["check_summary"]["reconstruction"], "x")):
        entry[key] = 1.0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)
        del entry[key]


@pytest.mark.parametrize("bad", [np.int64(1), {1, 2}, object(),
                                 [1.0, np.int64(2)], {(1, 2): 1.0},
                                 {"a": 1, 2: 3}])
def test_report_json_rejects_what_json_dumps_rejects(bad):
    with pytest.raises(TypeError) as want:
        json.dumps(bad, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        report_json(bad)
    assert str(got.value) == str(want.value)


def _reference(obj):
    # report_json's contract, written out
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def control_report():
    # negative_control fails strong-torsion, so its rows hold both verdicts
    return run_suite([builtin_scenario("negative_control")], points=2, seed=1)


_ODD_IDS = ['"', "\\", "\n", "%", "\u00e9", "\U0001f30a", "},\n      {"]


def _tables(report):
    """checks tables on report's rows: doctored values, and shapes that are
    not flat rows of scalars."""
    rows = report["checks"]
    row = rows[0]
    return {
        "as-run": rows,
        "reversed-keys": [dict(reversed(r.items())) for r in rows],
        "non-finite": [{**r, "rel_residual": v, "lhs_magnitude": -v}
                       for r, v in zip(rows, [math.nan, math.inf] * 9)],
        "odd-ids": [{**r, "scenario": i} for r, i in zip(rows, _ODD_IDS)],
        "odd-keys": [{**row, i: 1.0} for i in _ODD_IDS],
        "np-float64": [{**r, "alpha": np.float64(r["alpha"])} for r in rows],
        "varied-keys": [row, {"a": None}, {**row, "extra": True}],
        "list-value": [row, {**row, "x": [1.0, 2.0]}],
        "dict-value": [{**row, "x": {"b": 1}}, row],
        "empty-row": [row, {}],
        "list-row": [row, [1, 2]],
        "none-row": [row, None],
        "dict-subclass": [row, Counter(a=1)],
        "int-key": [{1: 2.0, 3: "x"}],
        "empty": [],
        "not-a-list": (row,),
    }


def test_report_json_is_json_dumps(control_report):
    assert _reference(control_report) == report_json(control_report)
    assert not all(r["passed"] for r in control_report["checks"])
    for name, table in _tables(control_report).items():
        report = {**control_report, "checks": table}
        assert report_json(report) == _reference(report), name
    # a "checks" key deeper down, before and after the table's; the empty
    # table of a points=0 report, and payloads with no table
    nested = {**control_report, "a": {"checks": []},
              "cheap": [{"checks": [1]}], "z": {"checks": "checks"}}
    for payload in (nested, _suite(points=0), {"checks": None},
                    [control_report], control_report["checks"], "checks"):
        assert report_json(payload) == _reference(payload)


@pytest.mark.parametrize("extra", [
    {"z": object()}, {"a": np.int64(1)}, {2: 3}, {"z": [np.bool_(True)]},
    {"checks": [{"point": 10 ** 5000}]},
    {"checks": [{"point": 10 ** 5000}], "z": object()}])
def test_report_json_with_flat_rows_raises_as_json_dumps(control_report,
                                                         extra):
    # the rows take the C encoder; the rest of the report still raises,
    # and a row's int longer than str() converts raises where json.dumps
    # meets it (before "z")
    bad = {**control_report, **extra}
    with pytest.raises((TypeError, ValueError)) as want:
        _reference(bad)
    with pytest.raises(want.type) as got:
        report_json(bad)
    assert str(got.value) == str(want.value)


def test_report_json_rows_take_the_c_encoder(control_report, monkeypatch):
    # json.dumps sees the report with an empty table: the rows went
    # through the C encoder, and give the same bytes without it too
    tables = []
    dumps = json.dumps

    def spy(obj, **kwargs):
        tables.append(obj["checks"])
        return dumps(obj, **kwargs)

    monkeypatch.setattr(verify.json, "dumps", spy)
    text = report_json(control_report)
    assert tables == [[]]
    monkeypatch.undo()
    assert text == _reference(control_report)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    for name, table in _tables(control_report).items():
        report = {**control_report, "checks": table}
        assert report_json(report) == _reference(report), name


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=6))
_TREES = st.recursive(_SCALARS, lambda kids: (
    st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3)), max_leaves=8)


@given(rest=st.dictionaries(st.text(max_size=8), _TREES, max_size=4),
       checks=(st.lists(st.dictionaries(st.text(max_size=8), _SCALARS,
                                        min_size=1, max_size=5),
                        min_size=1, max_size=4)
               | _TREES))
def test_report_json_is_json_dumps_on_any_tree(rest, checks):
    report = {**rest, "checks": checks}
    assert report_json(report) == _reference(report)


def test_negative_control_fails_only_torsion():
    report = run_suite([builtin_scenario("negative_control")],
                       points=4, seed=1)
    failed = {c["check"] for c in report["checks"] if not c["passed"]}
    assert failed == {"strong-torsion"}
    assert report["summary"]["fail"] > 0
    # the table counts the check's failed rows
    n_failed = sum(not c["passed"] for c in report["checks"])
    row = next(line for line in report_summary_table(report).splitlines()
               if line.startswith("strong-torsion "))
    assert row.endswith(f" {n_failed} FAIL")


def test_worst_row_does_not_depend_on_row_order(monkeypatch):
    # two failing rows of one check, rel NaN and 1e-3: the NaN is the
    # worst whichever point holds it
    judge = verify._checks

    def table(nan_point):
        def doctored(groups, bench, scenario_id, point):
            rows = judge(groups, bench, scenario_id, point)
            for r in rows:
                if r["check"] == "strong-torsion":
                    r["rel_residual"] = (math.nan if point == nan_point
                                         else 1e-3)
                    r["passed"] = False
            return rows

        monkeypatch.setattr(verify, "_checks", doctored)
        report = run_suite([builtin_scenario("flat_vacuum")], points=2,
                           seed=0, alphas=(1.0,))
        return report_summary_table(report)

    first, second = table(0), table(1)
    assert first == second
    lines = first.splitlines()
    row = next(line for line in lines if line.startswith("strong-torsion "))
    assert row.split()[1:3] == ["nan", "1e-09"]
    assert row.endswith(" 2 FAIL")
    # the last line reports the same worst residual as the table's rows
    assert lines[-1].endswith("max rel residual nan")


def test_summary_table_readable():
    report = _suite(points=2)
    table = report_summary_table(report)
    assert "strong-torsion" in table
    assert table.splitlines()[0].split() == ["check", "worst", "rel", "tol",
                                             "headroom", "status"]
    assert table.endswith("\n")
    assert f"{report['summary']['pass']} passed" in table


def test_point_sampler_contract():
    sc = builtin_scenario("reissner_nordstrom")
    rng = np.random.default_rng(2)
    pts = sample_phase_points(sc, 20, rng)
    assert len(pts) == 20
    box = sc.sampling_box
    for p in pts:
        assert sc.metric.guard_ok(p.x)
        for i in range(4):
            assert box[i][0] <= p.x[i] <= box[i][1]
        q = p.causal_sign * p.norm ** 2
        assert -4.0 <= q <= -0.25


def test_point_sampler_redraws_a_degenerate_draw():
    # a metric degenerate where x^1 < 0: the packs refuse those draws, and
    # each is a miss that is drawn again, like a draw outside the guard
    def half_degenerate(x):
        e = np.diag([-1.0, 1.0, 1.0, float(value_of(x[1]) >= 0.0)])
        return jeinsum("ij,->ij", e, 1.0 + x[2] * x[2])

    sc = dataclasses.replace(builtin_scenario("flat_vacuum"),
                             metric=metric_from_callable(half_degenerate))
    pts = sample_phase_points(sc, 20, np.random.default_rng(0))
    assert len(pts) == 20
    for p in pts:
        assert abs(np.linalg.det(sc.metric.pack(p.x, check=False).g)) >= 1e-10
    # a box where every draw is degenerate still ends after 1000 misses
    sc = dataclasses.replace(sc, sampling_box=np.array(
        [[0.0, 1.0], [-1.0, -0.5], [-1.0, 1.0], [-1.0, 1.0]]))
    with pytest.raises(ChartDomainError, match="1000 draws in a row"):
        sample_phase_points(sc, 1, np.random.default_rng(0))


def test_check_groups_pass_individually():
    sc = builtin_scenario("reissner_nordstrom")
    rng = np.random.default_rng(0)
    p = sample_phase_points(sc, 1, rng)[0]
    bench = _Bench(field_frame(sc.metric, sc.potential, p.x), p,
                   DEFAULT_ALPHAS)
    for fn in (_structural, _maxwell_homogeneous, _maxwell_inhomogeneous,
               _einstein):
        results = _checks((fn,), bench, sc.id, 0)
        assert results, fn.__name__
        assert {r["alpha"] for r in results} == set(DEFAULT_ALPHAS)
        for r in results:
            assert r["passed"], (fn.__name__, r["check"], r["rel_residual"])
            assert r["rel_residual"] <= TOLERANCES[r["check"]]
            assert isinstance(r["passed"], bool)


def test_several_rows_judged_by_worst_per_coupling():
    # the homogeneity ladder yields one row per rung; at each coupling the
    # judge keeps the rung with the largest rel, the last one on a tie
    bench = SimpleNamespace(alpha=np.array([-1.0, 0.0, 2.0]))
    lhs = np.ones((3, 2))

    def rungs(b):
        # rel per coupling: (.25, .25, .25), (.125, .25, 0), (.25, .125, 2)
        yield "homogeneity-ladder", lhs, 0.75, 1.0, None
        yield "homogeneity-ladder", lhs, [[0.75], [0.5], [1.0]], 2.0, None
        yield "homogeneity-ladder", lhs, 0.5, [2.0, 4.0, 0.25], None

    got = [(r["alpha"], r["rhs_magnitude"], r["abs_residual"],
            r["rel_residual"]) for r in _checks((rungs,), bench, "s", 0)]
    assert got == [(-1.0, 0.5, 0.5, 0.25), (0.0, 0.5, 0.5, 0.25),
                   (2.0, 0.5, 0.5, 2.0)]

    # a NaN rung is the worst, whichever rung it is, and fails its check
    # (as check_summary ranks it); rel per coupling: (.5, NaN, .5), (NaN,
    # 0, 0), so at coupling 1 the rung at rel 0 no longer passes it
    def nan_rungs(b):
        yield "homogeneity-ladder", lhs, [[0.5], [np.nan], [0.5]], 1.0, None
        yield "homogeneity-ladder", lhs, [[np.nan], [1.0], [1.0]], 1.0, None

    rows = _checks((nan_rungs,), bench, "s", 0)
    got = [r["rel_residual"] for r in rows]
    assert np.isnan(got[0]) and np.isnan(got[1]) and got[2] == 0.5
    assert [r["passed"] for r in rows] == [False, False, False]


def _reference_residuals(lhs, rhs, scale):
    """(max|lhs|, max|rhs|, max|lhs - rhs|, rel) per coupling of one row."""
    lhs = np.asarray(lhs, dtype=float)
    n = len(lhs)
    sides = np.empty((3,) + lhs.shape)
    sides[0] = lhs
    sides[1] = rhs
    np.subtract(lhs, rhs, out=sides[2])
    out = np.empty((4, n))
    np.abs(sides, out=sides).reshape(3, n, -1).max(axis=2, out=out[:3])
    lhs_mag, rhs_mag, abs_res, rel = out
    denom = np.where(scale != 0.0, scale,
                     np.where(rhs_mag > lhs_mag, rhs_mag, lhs_mag))
    rel[:] = np.inf
    np.divide(abs_res, denom, out=rel, where=denom > 0.0)
    rel[abs_res == 0.0] = 0.0
    return out


def _reference_checks(groups, bench, scenario_id, point):
    """The judge row by row: one residual pass per row, then the worst
    row per check and coupling through np.where, one coupling at a time;
    each row's keys in sorted order, as report_json's encoder expects."""
    judged = {}
    for group in groups:
        for check, lhs, rhs, scale, at in group(bench):
            if len(lhs):        # a row at no coupling gives no verdict
                judged.setdefault(check, (at, []))[1].append(
                    _reference_residuals(lhs, rhs, scale))
    results = []
    for check, (at, rows) in judged.items():
        parts = reduce(lambda top, row: np.where(
            (row[3] >= top[3]) | np.isnan(row[3]), row, top), rows)
        tol = TOLERANCES[check]
        alphas = bench.alpha if at is None else bench.alpha[at]
        for alpha, (lhs_mag, rhs_mag, abs_res, rel) in zip(
                alphas.tolist(), parts.T.tolist()):
            row = {"check": check, "scenario": scenario_id, "point": point,
                   "alpha": alpha, "lhs_magnitude": lhs_mag,
                   "rhs_magnitude": rhs_mag, "abs_residual": abs_res,
                   "rel_residual": rel,
                   "passed": rel <= tol or abs_res <= verify._ABS_FLOOR}
            results.append(dict(sorted(row.items())))
    return results


def _bits(rows):
    """Each row dict with its floats as float.hex, its keys in order."""
    return [[(k, type(v).__name__, v.hex() if isinstance(v, float) else v)
             for k, v in row.items()] for row in rows]


def _hand_built_groups(n):
    """Rows over n couplings covering every case of the residual policy.

    Each group draws its data afresh from one seed, so every call of a
    group yields the same rows.
    """
    def normal():
        rng = np.random.default_rng(7)
        return lambda *shape: rng.standard_normal((n,) + shape)

    def non_finite(b):
        # NaN and +-inf sides, against zero and nonzero scales
        tensor = normal()
        lhs, rhs = tensor(4, 4), tensor(4, 4)
        lhs[0, 1, 2] = np.nan
        rhs[-1, 0, 0] = np.inf
        if n > 2:
            rhs[1, 3, 3] = -np.inf
            lhs[2, 2, 2] = rhs[2, 2, 2] = np.inf
        yield "reconstruction", lhs, rhs, np.arange(n) % 2 * 1.5, None
        rhs = tensor()
        rhs[-1] = np.nan
        yield "ricci-hessian", tensor(), rhs, 0.0, None
        yield "spray-coherence", tensor(3), np.nan, np.full(n, np.inf), None

    def zeros(b):
        # zero scale with zero sides, exact-zero residuals, the floor
        tensor = normal()
        yield "angular-trace", np.zeros(n), 0.0, 0.0, None
        same = tensor(4)
        yield "tidal-orthogonality", same, same.copy(), 2.0, None
        lhs = tensor(4, 4)
        yield "angular-projection", lhs, lhs + 1e-16, 0.0, None
        yield "strong-torsion", np.full((n, 4, 4), 1e-15), -0.0, 1e-7, None

    def subsets(b):
        # rows at a subset of the couplings, scales per coupling there
        tensor = normal()
        at = np.flatnonzero(b.alpha != 0.0)
        yield ("einstein-trace-full", tensor()[at], tensor()[at],
               np.abs(tensor()[at]), at)
        yield "ricci-base-reduction", tensor(4, 4)[:1], tensor(4, 4)[0], \
            0.0, np.array([n - 1])
        # at the zero couplings only: no coupling on some grids
        zero = np.flatnonzero(b.alpha == 0.0)
        yield ("unit-direction-transport", tensor(4, 4)[zero],
               tensor(4, 4)[0], np.abs(tensor())[zero], zero)

    def shapes(b):
        # scalar, lower-rank and column rhs, and a rank-4 row
        tensor = normal()
        yield "maxwell-homogeneous", tensor(4, 4), 0.25, 1.0, None
        yield "maxwell-homogeneous-cyclic", tensor(4, 4), tensor(4, 4)[0], \
            np.abs(tensor()), None
        yield "maxwell-variants-agree", tensor(2), tensor(1), 3.0, None
        yield "curvature-antisymmetry", tensor(4, 4, 4, 4), \
            tensor(4, 4, 4)[0], np.abs(tensor()), None

    def ladder(b):
        # several rows of one check, between rows of others: ties and NaN
        tensor = normal()
        lhs = np.ones((n, 2))
        yield "homogeneity-ladder", lhs, 0.75, 1.0, None
        yield "einstein-trace", tensor(), tensor(), 0.5, None
        yield "homogeneity-ladder", lhs, np.zeros((n, 1)), 4.0, None
        rhs = np.full((n, 1), 0.5)
        rhs[::2] = np.nan
        yield "homogeneity-ladder", lhs, rhs, np.arange(n) + 2.0, None
        yield "trace-decomposition", tensor(), tensor(), 1.0, None
        yield "homogeneity-ladder", lhs, 0.5, 2.0, None
        rhs = tensor()
        rhs[-1] = np.nan
        yield "maxwell-inhomogeneous-quadratic", tensor(), rhs, 1.0, None
        yield "maxwell-inhomogeneous-quadratic", tensor(), tensor(), 0.0, None

    return non_finite, zeros, subsets, shapes, ladder


@pytest.mark.parametrize("alphas", [[-1.0, 0.0, 2.0, 2.0, 0.5], [0.5],
                                    [1.0, 1.0]])
def test_judge_matches_row_by_row_reference(alphas):
    # the one-pass judge gives every float the row-by-row judge gives, bit
    # for bit, whatever the sides, scales, shapes and subsets of the rows
    bench = SimpleNamespace(alpha=np.array(alphas))
    groups = _hand_built_groups(len(alphas))
    with np.errstate(invalid="ignore"):      # inf - inf, inf / inf
        for group in groups:
            assert (_bits(_checks((group,), bench, "s", 3))
                    == _bits(_reference_checks((group,), bench, "s", 3)))
        got = _checks(groups, bench, "s", 3)
        assert _bits(got) == _bits(_reference_checks(groups, bench, "s", 3))
    rels = [r["rel_residual"] for r in got]
    assert any(map(math.isnan, rels)) and math.inf in rels and 0.0 in rels


def test_judge_matches_row_by_row_reference_on_every_scenario():
    rng = np.random.default_rng(12)
    for sc in builtin_scenarios():
        [(_, groups, _)] = _plans([sc], DEFAULT_ALPHAS)
        for k, p in enumerate(sample_phase_points(sc, 2, rng)):
            bench = _Bench(field_frame(sc.metric, sc.potential, p.x), p,
                           DEFAULT_ALPHAS, sc.nonspray_perturbation)
            assert (_bits(_checks(groups, bench, sc.id, k))
                    == _bits(_reference_checks(groups, bench, sc.id, k))), \
                sc.id


def test_alpha_zero_skips_full_trace():
    sc = builtin_scenario("reissner_nordstrom")
    rng = np.random.default_rng(0)
    p = sample_phase_points(sc, 1, rng)[0]

    def judged(alphas):
        bench = _Bench(field_frame(sc.metric, sc.potential, p.x), p, alphas)
        return [(r["check"], r["alpha"])
                for r in _checks((_einstein,), bench, sc.id, 0)]

    # at alpha = 0 (-0.0 too) the full trace's row holds no coupling
    for zero in (0.0, -0.0):
        assert judged([zero]) == [("einstein-trace", zero)]
    assert judged([1.0]) == [("einstein-trace", 1.0),
                             ("einstein-trace-full", 1.0)]
    # over a batch the full trace carries only its nonzero couplings
    assert judged(DEFAULT_ALPHAS) == (
        [("einstein-trace", a) for a in DEFAULT_ALPHAS]
        + [("einstein-trace-full", a) for a in DEFAULT_ALPHAS if a != 0.0])


def test_custom_alpha_grid_respected():
    report = _suite(points=1, alphas=(0.25,))
    assert report["config"]["alphas"] == [0.25]
    assert {c["alpha"] for c in report["checks"]} == {0.25}
    default = _suite(points=1)
    assert sorted(default["config"]["alphas"]) == sorted(DEFAULT_ALPHAS)


def test_alpha_sweep_rows():
    sc = builtin_scenario("flat_coulomb")
    rows = alpha_sweep(sc, (-1.0, 0.0, 1.0), points=2, seed=4)
    assert len(rows) == 6
    for row in rows:
        assert row["scenario"] == "flat_coulomb"
        assert row["rel_residual_trace_decomposition"] < 1e-9
    # the quadratic term is even in alpha
    by_pt = [r for r in rows if r["point"] == 0]
    plus = next(r for r in by_pt if r["alpha"] == 1.0)
    minus = next(r for r in by_pt if r["alpha"] == -1.0)
    assert plus["contortion_quadratic"] == pytest.approx(
        minus["contortion_quadratic"], rel=1e-12)


def test_sweep_residuals_are_the_suite_checks():
    # the sweep judges the trace identities with the suite's own rows
    alphas = (-1.0, 0.0, 0.5, 3.0)
    columns = {"maxwell-inhomogeneous-quadratic": "rel_residual_quadratic",
               "maxwell-inhomogeneous-divergence": "rel_residual_divergence",
               "trace-decomposition": "rel_residual_trace_decomposition"}
    for sid in ("flat_coulomb", "reissner_nordstrom"):
        sc = builtin_scenario(sid)
        rows = alpha_sweep(sc, alphas, points=3, seed=4)
        report = run_suite([sc], points=3, seed=4, alphas=alphas)
        suite = {(c["point"], c["alpha"], c["check"]): c
                 for c in report["checks"] if c["check"] in columns}
        assert len(suite) == len(rows) * len(columns)
        for row in rows:
            for check, column in columns.items():
                c = suite[row["point"], row["alpha"], check]
                assert row[column] == c["rel_residual"], (sid, check)
                if sid == "flat_coulomb" and row["alpha"] == 0.0:
                    assert c["rel_residual"] <= TOLERANCES[check], \
                        (check, row)


def test_suite_yields_every_check_name():
    report = run_suite([builtin_scenario(s) for s in DEFAULT_SUITE],
                       points=1, seed=0)
    assert {c["check"] for c in report["checks"]} == set(TOLERANCES)


def test_expected_rows_counts_every_report_row():
    # -0.0 is a zero coupling, and a repeated coupling gives its rows twice;
    # a grid with no zero (or no nonzero) coupling gives rows at none, and
    # no warning
    scenarios = [builtin_scenario(i) for i in BUILTIN_IDS]
    for alphas in ((-2.0, 0.0, 0.7, 3.0, -0.0), (1.0, 1.0), (-0.0,),
                   (0.0, 0.0, 1.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_suite(scenarios, points=1, seed=3, alphas=alphas)
        assert len(report["checks"]) == expected_rows(scenarios, alphas, 1)
    assert expected_rows(scenarios, (0.0, 1.0), 3) == 3 * (
        9 * 2 * 16 + 9 + 5 * (2 + 1))      # 5 Einstein-consistent built-ins
    assert expected_rows(scenarios, (0.5,), 0) == 0
    with pytest.raises(ValueError, match="finite"):
        expected_rows(scenarios, (0.5, math.inf), 1)
    # a repeated scenario id is refused by both, before any point is drawn
    twins = scenarios[:1] * 2
    with pytest.raises(ScenarioError, match="'flat_vacuum'"):
        expected_rows(twins, (1.0,), 1)
    with pytest.raises(ScenarioError, match="'flat_vacuum'"):
        run_suite(twins, points=1, progress=pytest.fail)


def test_a_dropped_or_an_extra_row_raises(monkeypatch):
    # run_suite holds each bench's verdicts to CHECKS: a group that drops a
    # check, or yields one at a coupling the table does not give it, raises
    def dropping(b):
        return (row for row in _structural(b)
                if row.check != "spray-coherence")

    def widened(b):
        for row in _structural(b):
            if row.check == "ricci-base-reduction":     # at every coupling
                row = _Row(row.check, b.ricci, b.frame.ricci, _scale(b.ricci))
            yield row

    sc = builtin_scenario("flat_vacuum")
    run_suite([sc], points=1, seed=0)
    for group in (dropping, widened):
        # the table gives group every check it gives _structural
        monkeypatch.setattr(verify, "CHECKS", {
            name: c._replace(group=group) if c.group is _structural else c
            for name, c in CHECKS.items()})
        with pytest.raises(RuntimeError, match="rows differ from CHECKS"):
            run_suite([sc], points=1, seed=0)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_check_list_is_the_table():
    # one line per check, in table order, each saying where it applies
    text = README.read_text().split("### What each check realizes")[1]
    listed = re.findall(r"^- `([\w-]+)` \(([^)]*)\): ", text.split("\n#")[0],
                        flags=re.M)
    couplings = {None: "every alpha", True: "alpha = 0", False: "alpha != 0"}
    assert listed == [
        (name, couplings[c.zero] + (f", `{c.needs}` scenarios" if c.needs
                                    else ", every scenario"))
        for name, c in CHECKS.items()]


def test_empty_coupling_grid_is_refused():
    # None is the default grid; an empty one is an error, not the default
    sc = builtin_scenario("flat_vacuum")
    with pytest.raises(ValueError, match="coupling"):
        run_suite([sc], points=1, seed=0, alphas=())
    report = run_suite([sc], points=1, seed=0, alphas=None)
    assert report["config"]["alphas"] == list(DEFAULT_ALPHAS)


def test_alpha_sweep_without_couplings_samples_nothing(monkeypatch):
    # no coupling gives no rows, before any phase point is drawn
    def refuse(*args):
        raise AssertionError("sampled phase points for no coupling")

    monkeypatch.setattr(verify, "_draws", refuse)
    assert alpha_sweep(builtin_scenario("flat_coulomb"), [], points=200) == []


def test_non_finite_coupling_is_refused():
    sc = builtin_scenario("flat_coulomb")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            run_suite([sc], points=1, seed=0, alphas=(0.5, bad))
        with pytest.raises(ValueError, match="finite"):
            alpha_sweep(sc, [bad], points=1)


def test_zero_points_gives_empty_report():
    report = _suite(points=0)
    assert report["checks"] == []
    assert report["points"] == [] and report["check_summary"] == {}
    assert report["summary"] == {"pass": 0, "fail": 0, "max_rel_residual": 0.0}
    # a negative count is refused, not read as zero
    sc = builtin_scenario("flat_vacuum")
    with pytest.raises(ValueError, match="non-negative"):
        run_suite([sc], points=-1)
    with pytest.raises(ValueError, match="non-negative"):
        alpha_sweep(sc, (1.0,), points=-3)


def test_shared_cores_match_public_functions():
    # the bench reads one frame per point; its inputs must be exactly what
    # the public per-point functions compute on their own frames
    for sid in ("reissner_nordstrom", "flat_uniform_b", "negative_control"):
        sc = builtin_scenario(sid)
        pert = sc.nonspray_perturbation
        for p in sample_phase_points(sc, 2, np.random.default_rng(11)):
            b = _Bench(field_frame(sc.metric, sc.potential, p.x), p,
                       (0.0, 1.0), pert)
            transport = b.covariant(unit_direction_low)
            for k, alpha in enumerate((0.0, 1.0)):
                args = (sc.metric, sc.potential, alpha, p)
                torsion = strong_torsion(*args, perturbation=pert)
                assert np.array_equal(b.torsion[k], torsion)
                packet = tidal_packet(*args, nonspray_perturbation=pert)
                assert np.array_equal(packet.torsion, torsion)
                td = trace_decomposition(*args)
                assert (b.td.lhs[k], b.td.rhs[k]) == (td.lhs, td.rhs)
                assert np.array_equal(
                    transport[k],
                    d_covariant_derivative(*args, unit_direction_low))


def test_suite_builds_one_frame_per_point(monkeypatch):
    frames, tiers, couplings = count_builds(monkeypatch)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "_Bench", counted("bench", verify._Bench))
    monkeypatch.setattr(verify, "_checks", counted("judge", verify._checks))
    # each per-point reader builds one frame and only the tiers it reads
    sc = builtin_scenario("reissner_nordstrom")
    p = sample_phase_points(sc, 1, np.random.default_rng(2))[0]
    args = (sc.metric, sc.potential, 1.0, p)
    for read, want in (
            (lambda: connection_data(*args), {"plain": 1}),
            (lambda: tidal_packet(*args), {"jet": 1}),
            (lambda: trace_decomposition(*args), {"plain": 1}),
            (lambda: d_covariant_derivative(*args, unit_direction_low),
             {"phase": 1})):
        frames.clear()
        tiers.clear()
        couplings.clear()
        read()
        assert len(frames) == 1
        assert tiers == Counter(want)
        assert couplings == [(kind, 1.0) for kind in want]
    # the suite: one frame, one tier of each kind, one bench and one
    # judging pass per sampled point, each shared by every coupling
    frames.clear()
    tiers.clear()
    couplings.clear()
    report = _suite(points=2)
    assert len(frames) == 2 * len(report["scenarios"])
    assert len(set(frames)) == len(frames)
    n = len(frames)
    assert tiers == Counter(plain=n, jet=n, phase=n)
    assert calls == Counter(bench=n, judge=n)
    # each tier is built once, directly at the bench's array of couplings
    assert len(couplings) == 3 * n
    for kind, alpha in couplings:
        assert isinstance(alpha, np.ndarray), kind
        assert alpha.tolist() == list(DEFAULT_ALPHAS), kind
