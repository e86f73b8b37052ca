"""Differential test: the in-repo rk45-adaptive driver against scipy's RK45.

`dynamics._dopri45` replays the arithmetic of `solve_ivp(method="RK45")`
with `t_eval` and a terminal chart-guard event, so every run here must
agree with scipy bit for bit: sample times, states, right-hand-side count,
truncation and exit time.  scipy is a test extra only; without it this
module is skipped.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("scipy.integrate")
from scipy.integrate import solve_ivp  # noqa: E402

from tidalbundle import builtin_scenario, dynamics  # noqa: E402
from tidalbundle.connection import phase_point  # noqa: E402
from tidalbundle.dynamics import (IntegratorConfig,  # noqa: E402
                                  integrate_deviation_tidal,
                                  integrate_worldline, normalize_velocity)
from tidalbundle.errors import ChartDomainError  # noqa: E402
from tidalbundle.fields import builtin_metric, builtin_potential  # noqa: E402
from tidalbundle.tensors import DIM  # noqa: E402

SW = builtin_metric("schwarzschild", {"M": 1.0})
CART = builtin_metric("minkowski")


def _scipy_reference(rhs, state0, cfg, metric, potential):
    """Reference: solve_ivp on the sample grid, the chart guard terminal."""
    t0, t1 = map(float, cfg.t_span)

    def guard(t, s):
        return dynamics._combined_margin(metric, potential, s[:DIM])
    guard.terminal = True
    guard.direction = -1
    return solve_ivp(rhs, (t0, t1), state0, method="RK45",
                     t_eval=np.linspace(t0, t1, cfg.samples), rtol=cfg.rtol,
                     atol=cfg.atol, events=guard)


def _spy(monkeypatch):
    """Record the arguments of every driver call; returns the record."""
    seen = []
    integrate = dynamics._integrate

    def spy(*args):
        seen.append(args)
        return integrate(*args)

    monkeypatch.setattr(dynamics, "_integrate", spy)
    return seen


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, np.ascontiguousarray(a).tobytes()


def _scenario(sid, kind):
    sc = builtin_scenario(sid)
    if kind == "worldline":
        return lambda: integrate_worldline(sc.metric, sc.potential, sc.alpha,
                                           sc.initial_point, sc.integrator)
    return lambda: integrate_deviation_tidal(sc.metric, sc.potential, sc.alpha,
                                             sc.initial_point, sc.w0, sc.v0,
                                             sc.integrator)


def _infall_from_r3():
    # crosses r = 2M between the samples at t = 0 and t = 20
    x0 = np.array([0.0, 3.0, np.pi / 2, 0.0])
    y0 = normalize_velocity(SW.pack(x0).g, [1.0, -0.1, 0.0, 0.0], -1.0)
    p = phase_point(SW, x0, y0)
    return integrate_worldline(SW, builtin_potential("zero"), 0.0, p,
                               IntegratorConfig(t_span=(0.0, 40.0), samples=3))


RUNS = {
    "cyclotron-worldline": (_scenario("cyclotron", "worldline"), False),
    "cyclotron-deviation": (_scenario("cyclotron", "deviation"), False),
    "circular-worldline": (_scenario("schwarzschild_circular", "worldline"),
                           False),
    "circular-deviation": (_scenario("schwarzschild_circular", "deviation"),
                           False),
    "flat_uniform_b": (_scenario("flat_uniform_b", "worldline"), False),
    "flat_coulomb": (_scenario("flat_coulomb", "worldline"), False),
    "reissner_nordstrom": (_scenario("reissner_nordstrom", "worldline"), True),
    "schwarzschild_vacuum": (_scenario("schwarzschild_vacuum", "worldline"),
                             True),
    "infall-r3": (_infall_from_r3, True),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_trajectory_matches_scipy_bit_for_bit(monkeypatch, name):
    run, truncates = RUNS[name]
    seen = _spy(monkeypatch)
    traj = run()
    (args,) = seen
    ref = _scipy_reference(*args)
    assert ref.status in (0, 1)
    assert traj.truncated is truncates is (ref.status == 1)
    states = np.hstack([traj.x, traj.y]
                       + ([traj.w, traj.v] if traj.w is not None else []))
    assert _bits(traj.t) == _bits(ref.t)
    assert _bits(states) == _bits(ref.y.T)
    assert traj.nfev == ref.nfev
    if truncates:
        assert _bits(traj.exit_time) == _bits(ref.t_events[0][0])
    else:
        assert traj.exit_time == args[2].t_span[1]
    if name == "infall-r3":
        assert traj.exit_time == 2.7387297962644626


def test_tiny_rtol_is_floored_with_a_warning(monkeypatch):
    sc = builtin_scenario("cyclotron")
    cfg = replace(sc.integrator, t_span=(0.0, 0.5), samples=11, rtol=1e-16)
    seen = _spy(monkeypatch)
    with pytest.warns(UserWarning, match="rtol"):
        traj = integrate_worldline(sc.metric, sc.potential, sc.alpha,
                                   sc.initial_point, cfg)
    with pytest.warns(UserWarning, match="rtol"):
        ref = _scipy_reference(*seen[0])
    assert _bits(np.hstack([traj.x, traj.y])) == _bits(ref.y.T)
    assert traj.nfev == ref.nfev


def test_negative_atol_is_refused():
    sc = builtin_scenario("cyclotron")
    cfg = replace(sc.integrator, atol=-1.0)
    with pytest.raises(ValueError, match="atol"):
        integrate_worldline(sc.metric, sc.potential, sc.alpha,
                            sc.initial_point, cfg)
    rhs = lambda t, s: np.zeros_like(s)  # noqa: E731
    with pytest.raises(ValueError, match="atol"):
        _scipy_reference(rhs, np.ones(8), cfg, sc.metric, sc.potential)


def test_non_finite_initial_state_is_refused(monkeypatch):
    sc = builtin_scenario("cyclotron")
    w0 = np.array([0.0, np.nan, 0.0, 0.0])
    seen = _spy(monkeypatch)
    with pytest.raises(ValueError, match="finite"):
        integrate_deviation_tidal(sc.metric, sc.potential, sc.alpha,
                                  sc.initial_point, w0, sc.v0, sc.integrator)
    with pytest.raises(ValueError, match="finite"):
        _scipy_reference(*seen[0])


def test_step_collapse_fails_where_scipy_fails():
    # dy/dt = 1/(1 - t) has a log singularity at t = 1: the step shrinks
    # below ten float spacings of t, and both drivers give up there
    calls = []

    def rhs(t, s):
        calls.append(t)
        return np.ones_like(s) / (1.0 - t)

    cfg = IntegratorConfig(t_span=(0.0, 2.0), samples=5)
    state0 = np.ones(2 * DIM)
    with pytest.raises(ChartDomainError) as exc:
        dynamics._integrate(rhs, state0, cfg, CART, None)
    assert str(exc.value) == ("integration failed: Required step size is "
                              "less than spacing between numbers.")
    ours = list(calls)
    calls.clear()
    ref = _scipy_reference(rhs, state0, cfg, CART, None)
    assert ref.status == -1
    assert ref.message == ("Required step size is less than spacing between "
                           "numbers.")
    assert _bits(ours) == _bits(calls)
