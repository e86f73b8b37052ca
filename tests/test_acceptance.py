"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single PASS line once its assertions clear, so a
verbose run reads as a checklist.  The identity-suite report is built
once at 50 points per scenario and shared by the tests that slice it.
"""

import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from tidalbundle.cli import main
from tidalbundle.connection import field_frame, phase_point
from tidalbundle.curvature import tidal_packet
from tidalbundle.dynamics import (IntegratorConfig, convert_deviation_frame,
                                  integrate_deviation_classical,
                                  integrate_deviation_tidal,
                                  integrate_geodesic_lc, integrate_worldline,
                                  normalize_velocity, trajectory_csv,
                                  two_worldline_oracle)
from tidalbundle.fields import builtin_metric, builtin_potential
from tidalbundle.scenario import (BUILTIN_IDS, builtin_scenario,
                                 builtin_scenarios)
from tidalbundle.verify import (CHECKS, DEFAULT_ALPHAS, _Bench, _checks,
                                expected_rows, report_json, run_suite)

SUITE_POINTS = 50
SUITE_SEED = 0

# Pinned output bytes, measured with numpy 2.4.6 on scipy-openblas: the
# default suite report (without "_elapsed") and the `tidal compute`
# stdout of every built-in scenario, concatenated in BUILTIN_IDS order.
# A change that moves these bytes on purpose updates the pins and says why.
REPORT_SHA256 = \
    "c39a4a8e3be8ee58b7fa3e3eabb1ee759882ce3430298349291c4c87b146caf3"
# the same report in the v1 layout, before points and check_summary took
# the per-row x, y and tol copies: rebuilt from v2, it must still match
REPORT_V1_SHA256 = \
    "c69b61d1775cb523d5d753a63616f2e9434a0b8a9e364569bc6f5d5b2f96217c"
COMPUTE_SHA256 = \
    "3567d039d843cf9a5799d1e4235fefcdfe103f6fa4fe84ba8a69c3123f6b72e4"
# trajectory_csv of three short runs on the scenarios' own integrators:
# the cyclotron worldline over t in [0, 1], the schwarzschild_circular
# tidal deviation over t in [0, 20] and the cyclotron tidal deviation (the
# path that skips the most declared zeros) over t in [0, 0.2], 11 samples
# each.
CYCLOTRON_CSV_SHA256 = \
    "561b826c8add8bcf4a2479d402a9622be8edc6d9dde3ef776b043111ae3fd9d1"
CIRCULAR_DEVIATION_CSV_SHA256 = \
    "44bcd0f2c674270b5f47c9c9e8b599d26a9dbdad14f7548c8e8eebad46b600ae"
CYCLOTRON_DEVIATION_CSV_SHA256 = \
    "0b76141f81d50e5ef40995a85a8708ed324fc01486e4a67b7b86c04e6ee29958"

STRUCTURAL = {
    "reconstruction", "ricci-hessian", "ricci-base-reduction",
    "unit-direction-transport", "angular-projection", "angular-trace",
    "tidal-orthogonality", "homogeneity-ladder", "spray-coherence",
    "strong-torsion", "curvature-antisymmetry",
}


@pytest.fixture(scope="module")
def suite_report():
    t0 = time.perf_counter()
    report = run_suite(builtin_scenarios(), points=SUITE_POINTS,
                       seed=SUITE_SEED)
    report["_elapsed"] = time.perf_counter() - t0
    return report


def _slice(report, names):
    rows = [c for c in report["checks"] if c["check"] in names]
    assert rows, f"no rows for {names}"
    return rows


def _ok(label):
    print(f"PASS {label}")


def test_criterion_01_structural_identity_suite(suite_report):
    rows = _slice(suite_report, STRUCTURAL)
    worst = max(r["rel_residual"] for r in rows)
    alphas = {r["alpha"] for r in rows}
    scenarios = {r["scenario"] for r in rows}
    points = {r["point"] for r in rows}
    assert alphas == {-1.0, 0.0, 0.5, 1.0, 3.0}
    assert len(scenarios) == 4 and len(points) == SUITE_POINTS
    assert all(r["passed"] for r in rows), worst
    assert worst < 1e-9
    assert suite_report["_elapsed"] < 30.0
    _ok(f"structural suite: {len(rows)} checks, worst rel {worst:.2e}, "
        f"{suite_report['_elapsed']:.1f}s")


def test_criterion_02_homogeneous_maxwell(suite_report):
    sym = _slice(suite_report, {"maxwell-homogeneous"})
    cyc = _slice(suite_report, {"maxwell-homogeneous-cyclic"})
    assert max(r["rel_residual"] for r in sym) < 1e-9
    assert max(r["rel_residual"] for r in cyc) < 1e-8
    _ok(f"homogeneous maxwell: antisymmetry {max(r['rel_residual'] for r in sym):.2e}, "
        f"cyclic agreement {max(r['rel_residual'] for r in cyc):.2e}")


def test_criterion_03_inhomogeneous_maxwell(suite_report):
    both = _slice(suite_report, {"maxwell-inhomogeneous-quadratic",
                                 "maxwell-inhomogeneous-divergence"})
    agree = _slice(suite_report, {"maxwell-variants-agree"})
    assert max(r["rel_residual"] for r in both) < 1e-8
    assert max(r["rel_residual"] for r in agree) < 1e-9
    _ok(f"inhomogeneous maxwell: variants {max(r['rel_residual'] for r in both):.2e}, "
        f"cross-agreement {max(r['rel_residual'] for r in agree):.2e}")


def test_criterion_04_trace_decomposition(suite_report):
    rows = _slice(suite_report, {"trace-decomposition"})
    worst = max(r["rel_residual"] for r in rows)
    assert worst < 1e-8
    _ok(f"trace decomposition: worst rel {worst:.2e} over {len(rows)} points")


def test_criterion_05_einstein_trace_profiles():
    rn = builtin_scenario("reissner_nordstrom")
    sw = builtin_scenario("schwarzschild_vacuum")
    check = CHECKS["einstein-trace"]
    assert all(getattr(sc, check.needs) for sc in (rn, sw))
    worst_rel, worst_abs = 0.0, 0.0
    for i, r in enumerate(np.linspace(4.0, 50.0, 20)):
        x = np.array([0.0, r, 1.2, 0.3])
        for sc, alpha in ((rn, 1.0), (sw, 0.0)):
            g = sc.metric.pack(x).g
            y = normalize_velocity(g, [1.0, 0.02, 0.001, 0.3 / r], -1.0)
            p = phase_point(sc.metric, x, y)
            bench = _Bench(field_frame(sc.metric, sc.potential, p.x), p,
                           [alpha])
            for res in _checks((check.group,), bench, sc.id, 0):
                if res["check"] != "einstein-trace":
                    continue
                rel, res_abs = res["rel_residual"], res["abs_residual"]
                if sc is rn:
                    assert rel < 1e-7, (r, rel)
                    worst_rel = max(worst_rel, rel)
                else:
                    assert res_abs < 1e-10, (r, res_abs)
                    worst_abs = max(worst_abs, res_abs)
    _ok(f"einstein trace: charged exterior rel {worst_rel:.2e} at 20 radii, "
        f"vacuum abs {worst_abs:.2e}")


def test_criterion_06_uncharged_reduction():
    rn = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
    coul = builtin_potential("coulomb", {"Q": 0.5})
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(10):
        x = np.array([0.0, rng.uniform(4, 30), rng.uniform(0.8, 2.2),
                      rng.uniform(0, 6.0)])
        y = np.array([rng.uniform(1.0, 1.6), rng.uniform(-0.2, 0.2),
                      rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)])
        tp = tidal_packet(rn, coul, 0.0, phase_point(rn, x, y))
        scale = max(np.max(np.abs(tp.gravity_tidal)),
                    np.max(np.abs(tp.base_ricci)))
        worst = max(worst,
                    np.max(np.abs(tp.tidal - tp.gravity_tidal)) / scale,
                    np.max(np.abs(tp.d_ricci - tp.base_ricci)) / scale)
    assert worst < 1e-9
    # worldlines coincide with metric geodesics over a long span
    sw = builtin_metric("schwarzschild", {"M": 1.0})
    x0 = np.array([0.0, 10.0, np.pi / 2, 0.0])
    y0 = normalize_velocity(sw.pack(x0).g, [1.0, 0.01, 0.0, 10.0 ** -1.5], -1.0)
    p = phase_point(sw, x0, y0)
    cfg = IntegratorConfig(t_span=(0.0, 50.0), samples=101,
                           rtol=1e-12, atol=1e-12)
    a = integrate_worldline(sw, builtin_potential("zero"), 0.0, p, cfg)
    b = integrate_geodesic_lc(sw, p, cfg)
    gap = np.max(np.abs(a.x - b.x))
    assert gap < 1e-8
    _ok(f"uncharged reduction: tensor gap {worst:.2e}, "
        f"worldline vs geodesic {gap:.2e} over t = 50")


def test_criterion_07_dynamics_oracles():
    # (a) cyclotron closed form
    cart = builtin_metric("minkowski")
    ub = builtin_potential("uniform_b", {"B": 2.0, "axis": "z"})
    alpha, omega = 0.7, 1.4
    y0 = normalize_velocity(np.diag([-1.0, 1, 1, 1]), [1.0, 0.3, 0, 0], -1.0)
    p = phase_point(cart, np.zeros(4), y0)
    period = 2 * np.pi / omega
    cfg = IntegratorConfig(t_span=(0.0, period), samples=257,
                           rtol=1e-12, atol=1e-12)
    traj = integrate_worldline(cart, ub, alpha, p, cfg)
    radius = y0[1] / omega
    dist = np.hypot(traj.x[:, 1], traj.x[:, 2] + radius)
    radius_err = np.max(np.abs(dist - radius)) / radius
    period_err = np.max(np.abs(traj.x[-1, 1:3] - traj.x[0, 1:3])) / radius
    assert radius_err < 1e-6 and period_err < 1e-6
    # (b) circular orbit
    sc = builtin_scenario("schwarzschild_circular")
    orb = integrate_worldline(sc.metric, sc.potential, sc.alpha,
                              sc.initial_point, sc.integrator)
    r_err = np.max(np.abs(orb.x[:, 1] - 10.0)) / 10.0
    assert not orb.truncated and r_err < 1e-6
    # (c) linearized deviation vs a neighboring worldline
    rn = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
    coul = builtin_potential("coulomb", {"Q": 0.5})
    x0 = np.array([0.0, 8.0, np.pi / 2, 0.0])
    u0 = normalize_velocity(rn.pack(x0).g, [1.0, 0.0, 0.0, 0.04], -1.0)
    pp = phase_point(rn, x0, u0)
    w0 = np.array([0.0, 0.5, 0.1, 0.0])
    v0 = np.array([0.0, 0.0, 0.02, 0.01])
    dcfg = IntegratorConfig(t_span=(0.0, 20.0), samples=41,
                            rtol=1e-12, atol=1e-12)
    dev = integrate_deviation_tidal(rn, coul, 0.7, pp, w0, v0, dcfg)
    wmax = np.max(np.abs(dev.w))
    e1 = np.max(np.abs(two_worldline_oracle(rn, coul, 0.7, pp, w0, v0,
                                            1e-5, dcfg).w - dev.w))
    e2 = np.max(np.abs(two_worldline_oracle(rn, coul, 0.7, pp, w0, v0,
                                            5e-6, dcfg).w - dev.w))
    assert e1 / wmax < 1e-3
    assert abs(e1 / e2 - 2.0) < 0.4
    _ok(f"dynamics oracles: cyclotron {max(radius_err, period_err):.2e}, "
        f"orbit r drift {r_err:.2e}, deviation fd {e1 / wmax:.2e} "
        f"richardson {e1 / e2:.3f}")


def test_criterion_08_classical_deviation_equivalence():
    # flat + EM with the full velocity-coupling term, no slow-motion or
    # weak-field restriction; the adapted-channel result converted to
    # Levi-Civita rates must coincide for norm-preserving variations
    cart = builtin_metric("minkowski")
    ub = builtin_potential("uniform_b", {"B": 2.0, "axis": "z"})
    alpha = 0.7
    g = np.diag([-1.0, 1, 1, 1])
    u0 = normalize_velocity(g, [1.0, 0.3, 0.0, 0.0], -1.0)
    p = phase_point(cart, np.zeros(4), u0)
    w0 = np.array([0.0, 0.5, -0.3, 0.7])
    om0 = np.array([0.1, 0.02, -0.05, 0.04])
    om0 += (g @ u0 @ om0) * u0  # project onto the norm-preserving sector
    cfg = IntegratorConfig(t_span=(0.0, 5.0), samples=101,
                           rtol=1e-12, atol=1e-12)
    cl = integrate_deviation_classical(cart, ub, alpha, p, w0, om0, cfg)
    from tidalbundle.connection import connection_data
    v0 = om0 + connection_data(cart, ub, alpha, p).contortion.jacobian @ w0
    ad = integrate_deviation_tidal(cart, ub, alpha, p, w0, v0, cfg)
    ad_lc = convert_deviation_frame(cart, ub, alpha, ad, "levi-civita")
    scale = np.max(np.abs(cl.w))
    gap = max(np.max(np.abs(cl.w - ad_lc.w)),
              np.max(np.abs(cl.v - ad_lc.v))) / scale
    assert gap < 1e-6
    _ok(f"classical equivalence: channel gap {gap:.2e} over t = 5")


def test_criterion_09_determinism_and_exit_codes(tmp_path, suite_report,
                                                  capsys):
    # reports: same seed, byte-identical
    again = run_suite(builtin_scenarios(), points=SUITE_POINTS,
                      seed=SUITE_SEED)
    again["_elapsed"] = suite_report["_elapsed"]
    assert report_json(again) == report_json(suite_report)
    # and the pinned bytes
    report = {k: v for k, v in suite_report.items() if k != "_elapsed"}
    assert (hashlib.sha256(report_json(report).encode()).hexdigest()
            == REPORT_SHA256)
    compute = hashlib.sha256()
    capsys.readouterr()
    for sid in BUILTIN_IDS:
        assert main(["compute", "--scenario", sid]) == 0
        compute.update(capsys.readouterr().out.encode())
    assert compute.hexdigest() == COMPUTE_SHA256
    # trajectories: byte-identical CSV
    sc = builtin_scenario("cyclotron")
    t1 = trajectory_csv(integrate_worldline(sc.metric, sc.potential, sc.alpha,
                                            sc.initial_point, sc.integrator))
    t2 = trajectory_csv(integrate_worldline(sc.metric, sc.potential, sc.alpha,
                                            sc.initial_point, sc.integrator))
    assert t1 == t2
    # exit-code contract end to end
    rep = tmp_path / "r.json"
    assert main(["verify", "--scenario", "flat_vacuum", "--points", "2",
                 "--out", str(rep)]) == 0
    assert main(["verify", "--scenario", "negative_control", "--points", "2",
                 "--out", str(rep)]) == 1
    assert main(["simulate", "--scenario", "nosuch"]) == 2
    infall = tmp_path / "infall.json"
    infall.write_text(json.dumps({
        "id": "infall",
        "metric": {"name": "schwarzschild", "params": {"M": 1.0}},
        "initial": {"x0": [0.0, 6.0, 1.5707963267948966, 0.0],
                    "y0": [1.0, -0.3, 0.0, 0.0], "normalize": -1},
        "integrator": {"t_span": [0.0, 40.0], "samples": 81}}))
    assert main(["simulate", "--scenario", str(infall),
                 "--out", str(tmp_path / "i.csv")]) == 3
    _ok("determinism: byte-identical reports and CSV; exit codes 0/1/2/3")


def test_report_rows_are_the_expected_count(suite_report):
    # the pinned report holds the rows the check table gives
    assert len(suite_report["checks"]) == expected_rows(
        builtin_scenarios(), DEFAULT_ALPHAS, SUITE_POINTS) == 17550


def test_report_v2_rows_rebuild_v1(suite_report):
    # join x and y back from points and tol from check_summary: every
    # verdict and residual is the one the v1 report held
    report = {k: v for k, v in suite_report.items()
              if k not in ("_elapsed", "schema", "points", "check_summary")}
    points = {(p["scenario"], p["point"]): p for p in suite_report["points"]}
    summary = suite_report["check_summary"]
    report["checks"] = [
        dict(c, x=points[c["scenario"], c["point"]]["x"],
             y=points[c["scenario"], c["point"]]["y"],
             tol=summary[c["check"]]["tol"])
        for c in suite_report["checks"]]
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_V1_SHA256
    _ok(f"report v2: {len(points)} points, {len(summary)} checks, "
        "v1 rows unchanged")


def test_trajectory_bytes_pinned():
    sc = builtin_scenario("cyclotron")
    cfg = replace(sc.integrator, t_span=(0.0, 1.0), samples=11)
    text = trajectory_csv(integrate_worldline(sc.metric, sc.potential,
                                              sc.alpha, sc.initial_point, cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == CYCLOTRON_CSV_SHA256
    sc = builtin_scenario("schwarzschild_circular")
    cfg = replace(sc.integrator, t_span=(0.0, 20.0), samples=11)
    text = trajectory_csv(integrate_deviation_tidal(
        sc.metric, sc.potential, sc.alpha, sc.initial_point, sc.w0, sc.v0,
        cfg))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == CIRCULAR_DEVIATION_CSV_SHA256)
    sc = builtin_scenario("cyclotron")
    cfg = replace(sc.integrator, t_span=(0.0, 0.2), samples=11)
    text = trajectory_csv(integrate_deviation_tidal(
        sc.metric, sc.potential, sc.alpha, sc.initial_point, sc.w0, sc.v0,
        cfg))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == CYCLOTRON_DEVIATION_CSV_SHA256)
    _ok("dynamics: pinned worldline and deviation CSV bytes")


def test_criterion_10_negative_control(suite_report, tmp_path):
    report = run_suite([builtin_scenario("negative_control")],
                       points=5, seed=SUITE_SEED)
    failed = {c["check"] for c in report["checks"] if not c["passed"]}
    assert failed == {"strong-torsion"}
    assert main(["verify", "--scenario", "negative_control", "--points", "2",
                 "--out", str(tmp_path / "neg.json")]) == 1
    # the clean suite saw no torsion failure anywhere
    clean = [c for c in suite_report["checks"]
             if c["check"] == "strong-torsion"]
    assert all(c["passed"] for c in clean)
    _ok("negative control: perturbed connection fails strong-torsion, exit 1")
