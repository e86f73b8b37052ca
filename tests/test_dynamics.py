import io

import numpy as np
import pytest
from conftest import KILLING_CHARGES, charge_drift

from tidalbundle import dynamics
from tidalbundle.connection import phase_point
from tidalbundle.dynamics import (IntegratorConfig, convert_deviation_frame,
                                  integrate_deviation_classical,
                                  integrate_deviation_tidal,
                                  integrate_geodesic_lc, integrate_worldline,
                                  normalize_velocity, trajectory_csv,
                                  two_worldline_oracle)
from tidalbundle.errors import NullFiberError, TidalError
from tidalbundle.fields import builtin_metric, builtin_potential

CART = builtin_metric("minkowski")
ZERO = builtin_potential("zero")
UB = builtin_potential("uniform_b", {"B": 2.0, "axis": "z"})
SW = builtin_metric("schwarzschild", {"M": 1.0})

TIGHT = IntegratorConfig(t_span=(0.0, 10.0), samples=101,
                         rtol=1e-12, atol=1e-12)


def _cyclotron_start(alpha=0.7, v=0.3):
    y = normalize_velocity(np.diag([-1.0, 1, 1, 1]), [1.0, v, 0.0, 0.0], -1.0)
    return phase_point(CART, np.zeros(4), y), y[1]


def test_cyclotron_radius_period_center():
    # closed-form circular motion: angular rate alpha*B at unit norm,
    # radius v/omega, center displaced by -v/omega along x2
    alpha, B = 0.7, 2.0
    omega = alpha * B
    p, v = _cyclotron_start(alpha)
    period = 2.0 * np.pi / omega
    cfg = IntegratorConfig(t_span=(0.0, period), samples=401,
                           rtol=1e-12, atol=1e-12)
    traj = integrate_worldline(CART, UB, alpha, p, cfg)
    radius = v / omega
    center = np.array([0.0, -radius])
    dist = np.hypot(traj.x[:, 1] - center[0], traj.x[:, 2] - center[1])
    np.testing.assert_allclose(dist, radius, rtol=1e-9)
    # one period closes the orbit in both position and velocity
    np.testing.assert_allclose(traj.x[-1, 1:3], traj.x[0, 1:3],
                               atol=1e-9 * radius)
    np.testing.assert_allclose(traj.y[-1], traj.y[0], atol=1e-10)
    assert traj.norm_drift < 1e-10


def test_circular_orbit_stays_circular():
    # Schwarzschild circular geodesic at r = 10: Omega^2 = M/r^3
    r, Omega = 10.0, 10.0 ** -1.5
    x0 = np.array([0.0, r, np.pi / 2, 0.0])
    y0 = np.array([1.0, 0.0, 0.0, Omega])
    p = phase_point(SW, x0, y0)
    period = 2.0 * np.pi / Omega
    cfg = IntegratorConfig(t_span=(0.0, period), samples=201,
                           rtol=1e-12, atol=1e-12)
    traj = integrate_worldline(SW, ZERO, 0.0, p, cfg)
    assert not traj.truncated
    np.testing.assert_allclose(traj.x[:, 1], r, rtol=1e-9)
    # after one full angular period phi advanced by 2 pi
    assert traj.x[-1, 3] == pytest.approx(2.0 * np.pi, rel=1e-10)


def test_worldline_matches_geodesic_at_zero_coupling():
    x0 = np.array([0.0, 10.0, np.pi / 2, 0.0])
    y0 = np.array([1.0, 0.01, 0.0, 10.0 ** -1.5])
    p = phase_point(SW, x0, y0)
    a = integrate_worldline(SW, ZERO, 0.0, p, TIGHT)
    b = integrate_geodesic_lc(SW, p, TIGHT)
    assert np.max(np.abs(a.x - b.x)) < 1e-10
    assert np.max(np.abs(a.y - b.y)) < 1e-10


def test_charge_to_mass_changes_the_orbit():
    rn = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
    coul = builtin_potential("coulomb", {"Q": 0.5})
    x0 = np.array([0.0, 8.0, np.pi / 2, 0.0])
    y0 = np.array([1.0, 0.0, 0.0, 0.04])
    p = phase_point(rn, x0, y0)
    cfg = IntegratorConfig(t_span=(0.0, 20.0), samples=51)
    neutral = integrate_worldline(rn, coul, 0.0, p, cfg)
    charged = integrate_worldline(rn, coul, 0.5, p, cfg)
    assert np.max(np.abs(neutral.x - charged.x)) > 1e-3


def test_fixed_step_agrees_with_adaptive():
    p, _ = _cyclotron_start()
    cfg_fixed = IntegratorConfig(method="rk4-fixed", t_span=(0.0, 5.0),
                                 samples=51, step=1e-3)
    cfg_adapt = IntegratorConfig(t_span=(0.0, 5.0), samples=51,
                                 rtol=1e-12, atol=1e-12)
    a = integrate_worldline(CART, UB, 0.7, p, cfg_fixed)
    b = integrate_worldline(CART, UB, 0.7, p, cfg_adapt)
    np.testing.assert_allclose(a.x, b.x, atol=5e-11)


def test_truncation_at_chart_boundary():
    # radial infall crosses the guard radius; the run must stop cleanly
    x0 = np.array([0.0, 6.0, np.pi / 2, 0.0])
    y0 = normalize_velocity(SW.pack(x0).g, [1.0, -0.3, 0.0, 0.0], -1.0)
    p = phase_point(SW, x0, y0)
    cfg = IntegratorConfig(t_span=(0.0, 40.0), samples=81)
    traj = integrate_worldline(SW, ZERO, 0.0, p, cfg)
    assert traj.truncated
    assert 0.0 < traj.exit_time < 40.0
    assert traj.t[-1] <= traj.exit_time
    assert traj.x[:, 1].min() > 2.0
    text = trajectory_csv(traj)
    assert text.rstrip().endswith(f"# truncated: left chart near t={traj.exit_time!r}")


def test_fixed_step_guards_every_substep():
    # a short infall from r = 3 crosses r = 2M between the samples at
    # t = 0 and t = 20; the fixed-step run must stop there too, not run on
    # inside the horizon to the next sample
    x0 = np.array([0.0, 3.0, np.pi / 2, 0.0])
    y0 = normalize_velocity(SW.pack(x0).g, [1.0, -0.1, 0.0, 0.0], -1.0)
    p = phase_point(SW, x0, y0)
    fixed = integrate_worldline(SW, ZERO, 0.0, p, IntegratorConfig(
        method="rk4-fixed", t_span=(0.0, 40.0), samples=3))
    adaptive = integrate_worldline(SW, ZERO, 0.0, p, IntegratorConfig(
        t_span=(0.0, 40.0), samples=3))
    for traj in (fixed, adaptive):
        assert traj.truncated
        np.testing.assert_array_equal(traj.t, [0.0])
        np.testing.assert_array_equal(traj.x, [x0])
    # the last in-chart substep lies within one step of the adaptive exit
    assert 0.0 < fixed.exit_time <= adaptive.exit_time < fixed.exit_time + 0.02


def test_fixed_step_nfev_is_four_per_substep():
    # two sample intervals of 0.5 at step 0.25: 4 substeps, 16 evaluations,
    # every substep accepted and, the intervals being exact binary
    # fractions, every substep the same float
    p, _ = _cyclotron_start()
    cfg = IntegratorConfig(method="rk4-fixed", t_span=(0.0, 1.0), samples=3,
                           step=0.25)
    w0, v0 = np.array([0.0, 0.5, -0.3, 0.7]), np.zeros(4)
    for traj in (integrate_worldline(CART, UB, 0.7, p, cfg),
                 integrate_deviation_tidal(CART, UB, 0.7, p, w0, v0, cfg)):
        assert (traj.nfev, traj.accepted, traj.rejected) == (16, 4, 0)
        assert traj.min_step == traj.max_step == 0.25


@pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
def test_nfev_counts_every_rhs_call(monkeypatch, method):
    calls = []

    def counted(*args):
        calls.append(args)
        return worldline_rhs(*args)

    worldline_rhs = dynamics.worldline_rhs
    monkeypatch.setattr(dynamics, "worldline_rhs", counted)
    p, _ = _cyclotron_start()
    cfg = IntegratorConfig(method=method, t_span=(0.0, 2.0), samples=5,
                           step=0.1)
    traj = integrate_worldline(CART, UB, 0.7, p, cfg)
    assert traj.nfev == len(calls) > 0


def test_adaptive_nfev_is_six_per_attempted_step():
    # rk45-adaptive: f(t0), the initial-step probe, then six stages per
    # attempted step (the seventh is reused: first same as last).  The
    # reissner_nordstrom run rejects steps and ends at the chart guard.
    # The accepted steps span a positive range, on a truncated run too.
    rn = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
    coul = builtin_potential("coulomb", {"Q": 0.5})
    x0 = np.array([0.0, 8.0, np.pi / 2, 0.0])
    y0 = normalize_velocity(rn.pack(x0).g, [1.0, 0.0, 0.0, 0.03], -1.0)
    p = phase_point(rn, x0, y0)
    traj = integrate_worldline(rn, coul, 1.0, p, IntegratorConfig(
        t_span=(0.0, 40.0), samples=201))
    assert traj.truncated and traj.rejected > 0
    assert traj.nfev == 2 + 6 * (traj.accepted + traj.rejected)
    assert 0.0 < traj.min_step < traj.max_step <= traj.exit_time
    q, _ = _cyclotron_start()
    w0, v0 = np.array([0.0, 0.5, -0.3, 0.7]), np.zeros(4)
    dev = integrate_deviation_tidal(CART, UB, 0.7, q, w0, v0,
                                    IntegratorConfig(t_span=(0.0, 1.0)))
    assert dev.accepted > 0
    assert dev.nfev == 2 + 6 * (dev.accepted + dev.rejected)
    assert 0.0 < dev.min_step < dev.max_step <= 1.0


@pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
def test_max_steps_guard_raises(method):
    # one failure class for both drivers: not a chart exit, so exit code 2
    p, _ = _cyclotron_start()
    cfg = IntegratorConfig(method=method, t_span=(0.0, 100.0), samples=11,
                           max_steps=3)
    with pytest.raises(TidalError) as exc:
        integrate_worldline(CART, UB, 0.7, p, cfg)
    assert type(exc.value) is TidalError


def test_solution_parametrization_scales():
    # y0 -> lam*y0 traces the same path: x_lam(t) = x(lam*t)
    lam = 2.0
    x0 = np.array([0.0, 10.0, np.pi / 2, 0.0])
    y0 = np.array([1.0, 0.0, 0.0, 10.0 ** -1.5])
    p1 = phase_point(SW, x0, y0)
    p2 = phase_point(SW, x0, lam * y0)
    c1 = IntegratorConfig(t_span=(0.0, 20.0), samples=41,
                          rtol=1e-12, atol=1e-12)
    c2 = IntegratorConfig(t_span=(0.0, 20.0 / lam), samples=41,
                          rtol=1e-12, atol=1e-12)
    a = integrate_worldline(SW, ZERO, 0.0, p1, c1)
    b = integrate_worldline(SW, ZERO, 0.0, p2, c2)
    np.testing.assert_allclose(a.x, b.x, atol=1e-9)
    # the natural parameter s = t * ||y(0)|| ends at the same value
    assert b.t[-1] * p2.norm == pytest.approx(a.t[-1] * p1.norm, rel=1e-12)


def test_normalize_velocity_contract():
    g = np.diag([-1.0, 1, 1, 1])
    u = normalize_velocity(g, [2.0, 0.5, 0.0, 0.0], -1.0)
    assert g @ u @ u == pytest.approx(-1.0)
    with pytest.raises(NullFiberError):
        normalize_velocity(g, [0.5, 2.0, 0.0, 0.0], -1.0)  # spacelike input


def test_deviation_against_two_worldline_oracle():
    # linearized flow vs an explicit neighboring worldline, first order
    # in eps with Richardson-confirmed convergence
    rn = builtin_metric("reissner_nordstrom", {"M": 1.0, "Q": 0.5})
    coul = builtin_potential("coulomb", {"Q": 0.5})
    x0 = np.array([0.0, 8.0, np.pi / 2, 0.0])
    y0 = normalize_velocity(rn.pack(x0).g, [1.0, 0.0, 0.0, 0.04], -1.0)
    p = phase_point(rn, x0, y0)
    w0 = np.array([0.0, 0.5, 0.1, 0.0])
    v0 = np.array([0.0, 0.0, 0.02, 0.01])
    cfg = IntegratorConfig(t_span=(0.0, 20.0), samples=41,
                           rtol=1e-12, atol=1e-12)
    traj = integrate_deviation_tidal(rn, coul, 0.7, p, w0, v0, cfg)
    wmax = np.max(np.abs(traj.w))
    errs = []
    for eps in (1e-5, 5e-6):
        fd = two_worldline_oracle(rn, coul, 0.7, p, w0, v0, eps, cfg)
        assert not fd.truncated
        errs.append(np.max(np.abs(fd.w - traj.w)))
    assert errs[0] < 1e-3 * wmax
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)


def test_classical_equivalence_needs_orthogonal_rate():
    # flat + EM: the classical proper-time deviation and the adapted
    # channel agree exactly when the initial rate preserves the fiber
    # norm, g(u0, omega0) = 0; otherwise they answer different questions
    alpha = 0.7
    p, _ = _cyclotron_start(alpha)
    g = np.diag([-1.0, 1, 1, 1])
    u0 = p.y
    w0 = np.array([0.0, 0.5, -0.3, 0.7])
    om0 = np.array([0.1, 0.02, -0.05, 0.04])
    om0_perp = om0 + (g @ u0 @ om0) * u0  # g(u,u) = -1 makes this exact
    assert g @ u0 @ om0_perp == pytest.approx(0.0, abs=1e-16)
    cfg = IntegratorConfig(t_span=(0.0, 5.0), samples=51,
                           rtol=1e-12, atol=1e-12)
    cl = integrate_deviation_classical(CART, UB, alpha, p, w0, om0_perp, cfg)
    ad = integrate_deviation_tidal(CART, UB, alpha, p, w0,
                                   om0_perp + _b1(alpha, p) @ w0, cfg)
    ad_lc = convert_deviation_frame(CART, UB, alpha, ad, "levi-civita")
    scale = np.max(np.abs(cl.w))
    assert np.max(np.abs(cl.w - ad_lc.w)) < 1e-8 * scale
    assert np.max(np.abs(cl.v - ad_lc.v)) < 1e-8
    # drop orthogonality: the two channels now disagree at finite size
    cl2 = integrate_deviation_classical(CART, UB, alpha, p, w0, om0, cfg)
    ad2 = integrate_deviation_tidal(CART, UB, alpha, p, w0,
                                    om0 + _b1(alpha, p) @ w0, cfg)
    ad2_lc = convert_deviation_frame(CART, UB, alpha, ad2, "levi-civita")
    assert np.max(np.abs(cl2.w - ad2_lc.w)) > 1e-3 * np.max(np.abs(cl2.w))


def _b1(alpha, p):
    from tidalbundle.connection import connection_data
    return connection_data(CART, UB, alpha, p).contortion.jacobian


def test_frame_conversion_round_trip():
    p, _ = _cyclotron_start()
    w0 = np.array([0.0, 0.5, -0.3, 0.7])
    v0 = np.array([0.0, 0.1, 0.0, 0.0])
    cfg = IntegratorConfig(t_span=(0.0, 3.0), samples=31)
    traj = integrate_deviation_tidal(CART, UB, 0.7, p, w0, v0, cfg)
    lc = convert_deviation_frame(CART, UB, 0.7, traj, "levi-civita")
    back = convert_deviation_frame(CART, UB, 0.7, lc, "adapted")
    np.testing.assert_allclose(back.v, traj.v, atol=1e-15)
    assert lc.rate_channel == "levi-civita"
    # converting to the channel already in use is a no-op
    assert convert_deviation_frame(CART, UB, 0.7, traj, "adapted") is traj


def test_classical_form_rejects_curved_or_unnormalized():
    x0 = np.array([0.0, 10.0, np.pi / 2, 0.0])
    p = phase_point(SW, x0, np.array([1.0, 0.0, 0.0, 0.01]))
    cfg = IntegratorConfig(t_span=(0.0, 1.0), samples=11)
    with pytest.raises(ValueError):
        integrate_deviation_classical(SW, ZERO, 0.0, p, np.zeros(4),
                                      np.zeros(4), cfg)
    p2 = phase_point(CART, np.zeros(4), np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        integrate_deviation_classical(CART, UB, 0.7, p2, np.zeros(4),
                                      np.zeros(4), cfg)


def test_csv_round_trips_exactly():
    p, _ = _cyclotron_start()
    cfg = IntegratorConfig(t_span=(0.0, 2.0), samples=21)
    traj = integrate_worldline(CART, UB, 0.7, p, cfg)
    text = trajectory_csv(traj)
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], traj.t)
    np.testing.assert_array_equal(data[:, 1:5], traj.x)
    np.testing.assert_array_equal(data[:, 5:9], traj.y)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler").validate()
    with pytest.raises(ValueError):
        IntegratorConfig(t_span=(1.0, 0.0)).validate()
    with pytest.raises(ValueError):
        IntegratorConfig(samples=1).validate()
    with pytest.raises(ValueError):
        IntegratorConfig(step=-0.1).validate()


@pytest.mark.parametrize("scenario_id",
                         sorted({s for s, _ in KILLING_CHARGES}))
def test_killing_charge_is_conserved(scenario_id):
    # g(y,y), the cyclotron radius and period hold at either sign of the
    # coupling; the charge of a Killing vector that leaves A invariant
    # holds only at the right one (see test_mutations)
    for (sid, k), (t_span, bound) in KILLING_CHARGES.items():
        if sid == scenario_id:
            assert charge_drift(scenario_id, k, t_span) < bound, k
