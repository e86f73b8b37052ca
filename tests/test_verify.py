import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from tidalbundle import connection, curvature, verify
from tidalbundle.connection import (d_covariant_derivative, phase_point,
                                    strong_torsion, unit_direction_low)
from tidalbundle.curvature import tidal_packet, trace_decomposition
from tidalbundle.scenario import builtin_scenario, builtin_scenarios
from tidalbundle.verify import (DEFAULT_ALPHAS, TOLERANCES, _Bench, _einstein,
                                _maxwell_homogeneous, _maxwell_inhomogeneous,
                                _Point, _structural, alpha_sweep,
                                full_trace_rhs, report_json,
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
    report = _suite(points=2)
    schema = json.loads(resources.files("tidalbundle")
                        .joinpath("schemas/report.schema.json").read_text())
    jsonschema.validate(report, schema)
    # and survives a JSON round trip unchanged
    assert json.loads(report_json(report)) == report


def test_negative_control_fails_only_torsion():
    report = run_suite([builtin_scenario("negative_control")],
                       points=4, seed=1)
    failed = {c["check"] for c in report["checks"] if not c["passed"]}
    assert failed == {"strong-torsion"}
    assert report["summary"]["fail"] > 0


def test_summary_table_readable():
    report = _suite(points=2)
    table = report_summary_table(report)
    assert "strong-torsion" in table
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


def test_check_groups_pass_individually():
    sc = builtin_scenario("reissner_nordstrom")
    rng = np.random.default_rng(0)
    p = sample_phase_points(sc, 1, rng)[0]
    bench = _Bench(_Point(sc.metric, sc.potential, p), 1.0)
    for fn in (_structural, _maxwell_homogeneous, _maxwell_inhomogeneous,
               _einstein):
        results = fn(bench, sc.id, 0)
        assert results, fn.__name__
        for r in results:
            assert r.passed, (fn.__name__, r.check, r.rel_residual)
            assert r.tol == TOLERANCES[r.check]
            d = r.to_dict()
            assert isinstance(d["x"], list)
            assert isinstance(d["passed"], bool)


def test_alpha_zero_skips_full_trace():
    sc = builtin_scenario("reissner_nordstrom")
    rng = np.random.default_rng(0)
    p = sample_phase_points(sc, 1, rng)[0]
    point = _Point(sc.metric, sc.potential, p)
    names = {r.check for r in _einstein(_Bench(point, 0.0), sc.id, 0)}
    assert names == {"einstein-trace"}
    names = {r.check for r in _einstein(_Bench(point, 1.0), sc.id, 0)}
    assert names == {"einstein-trace", "einstein-trace-full"}


def test_full_trace_rhs_matter_linearity():
    # synthetic matter enters only through -8 pi (rho_m - eps T/2)
    sc = builtin_scenario("reissner_nordstrom")
    rng = np.random.default_rng(3)
    p = sample_phase_points(sc, 1, rng)[0]
    b = _Bench(_Point(sc.metric, sc.potential, p), 1.0)
    base = full_trace_rhs(b)
    shifted = full_trace_rhs(b, rho_m=0.2, matter_trace=0.3)
    want = -8.0 * np.pi * (0.2 - 0.5 * b.eps * 0.3)
    assert shifted - base == pytest.approx(want, rel=1e-12)


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


def test_zero_points_gives_empty_report():
    report = _suite(points=0)
    assert report["checks"] == []
    assert report["summary"] == {"pass": 0, "fail": 0, "max_rel_residual": 0.0}


def test_shared_cores_match_public_functions():
    # the bench reads one frame per point; its inputs must be exactly what
    # the public per-point functions compute on their own frames
    for sid in ("reissner_nordstrom", "flat_uniform_b", "negative_control"):
        sc = builtin_scenario(sid)
        pert = sc.nonspray_perturbation
        for p in sample_phase_points(sc, 2, np.random.default_rng(11)):
            point = _Point(sc.metric, sc.potential, p)
            for alpha in (0.0, 1.0):
                b = _Bench(point, alpha, pert)
                args = (sc.metric, sc.potential, alpha, p)
                torsion = strong_torsion(*args, perturbation=pert)
                assert np.array_equal(b.torsion, torsion)
                packet = tidal_packet(*args, nonspray_perturbation=pert)
                assert np.array_equal(packet.torsion, torsion)
                td = trace_decomposition(*args)
                assert (b.td.lhs, b.td.rhs) == (td.lhs, td.rhs)
                assert np.array_equal(
                    b.transport,
                    d_covariant_derivative(*args, unit_direction_low))


def test_suite_builds_one_frame_per_point(monkeypatch):
    calls = []
    original = connection.field_frame

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    for module in (connection, curvature, verify):
        monkeypatch.setattr(module, "field_frame", counted)
    report = _suite(points=2)
    assert len(calls) == 2 * len(report["scenarios"])
    assert len({np.asarray(x).tobytes() for x in calls}) == len(calls)
