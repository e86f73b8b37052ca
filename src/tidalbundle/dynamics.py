"""Worldlines and worldline deviation.

Worldlines are autoparallels of the nonlinear connection,
dy^i/dt = -N^i_j y^j, which is the Lorentz-force equation in arbitrary
parameter.  Deviation integrates alongside the worldline in the adapted
channel (w, v = delta w/dt):

    dw^i/dt = v^i - N^i_j w^j
    dv^i/dt = E^i_j w^j - N^i_j v^j

so the tidal tensor is the only driving term.  The classical form keeps
the Levi-Civita rate and the explicit velocity-coupling term; both are
integrated here so they can cross-validate each other on flat scenarios.

Parameters t are arbitrary; along any trajectory g(y,y) is conserved, so
the natural parameter is s = t * ||y(0)|| when one is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from scipy.integrate import solve_ivp

from .connection import field_frame, fiber_parts
from .errors import ChartDomainError, NullFiberError, TidalError
from .tensors import DIM, PhasePoint, norm_and_sign


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45-adaptive"
    t_span: tuple = (0.0, 10.0)
    samples: int = 201
    step: float = None            # rk4-fixed substep; defaults to span/2000
    rtol: float = 1e-10
    atol: float = 1e-10
    max_steps: int = 1_000_000

    def validate(self):
        if self.method not in ("rk45-adaptive", "rk4-fixed"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        t0, t1 = self.t_span
        if not (np.isfinite(t0) and np.isfinite(t1) and t1 > t0):
            raise ValueError(f"bad t_span {self.t_span!r}")
        if self.samples < 2:
            raise ValueError("need at least two samples")
        if self.step is not None and self.step <= 0:
            raise ValueError("step must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray                 # (n,)
    x: np.ndarray                 # (n, 4)
    y: np.ndarray                 # (n, 4)
    truncated: bool
    exit_time: float              # last in-chart parameter when truncated
    norm_drift: float             # max |g(y,y) - g(y0,y0)| over samples
    method: str
    w: np.ndarray = None          # deviation components, when integrated
    v: np.ndarray = None          # deviation rate, channel per rate_channel
    rate_channel: str = None      # "adapted" or "levi-civita"


def normalize_velocity(g, y, target):
    """Rescale y so that g(y,y) = target, with target in {-1, +1}."""
    nrm, eps = norm_and_sign(g, y)
    if eps != int(np.sign(target)):
        kind = "timelike" if eps < 0 else "spacelike"
        raise NullFiberError(
            f"cannot normalize a {kind} vector to g(y,y) = {target}")
    return np.asarray(y, dtype=float) / nrm


def worldline_rhs(metric, potential, alpha, x, y):
    """(dx/dt, dy/dt) of the charged worldline at one phase point."""
    frame = field_frame(metric, potential, x, check=False)
    parts = fiber_parts(frame, alpha, y, check=False)
    return np.asarray(y, dtype=float), -parts.N @ np.asarray(y, dtype=float)


def _combined_margin(metric, potential, x):
    m = np.min(metric.guard_margins(x))
    if potential is not None:
        pm = potential.guard_margins(x)
        if len(pm):
            m = min(m, np.min(pm))
    return float(m)


def _integrate(rhs, state0, cfg, metric, potential):
    """Shared driver: adaptive or fixed-step, with chart-guard truncation.

    Returns (t, states, truncated, exit_time).  Samples lie on the uniform
    grid over cfg.t_span; on truncation only in-chart samples are kept.
    """
    cfg.validate()
    t0, t1 = map(float, cfg.t_span)
    t_eval = np.linspace(t0, t1, cfg.samples)

    if cfg.method == "rk45-adaptive":
        def guard(t, s):
            return _combined_margin(metric, potential, s[:DIM])
        guard.terminal = True
        guard.direction = -1
        nfev = [0]

        def counted(t, s):
            nfev[0] += 1
            if nfev[0] > 6 * cfg.max_steps:   # six stage evaluations per step
                raise TidalError(
                    "integrator exceeded max_steps; the step size has likely "
                    "collapsed (stiff or noise-limited right-hand side)")
            return rhs(t, s)

        sol = solve_ivp(counted, (t0, t1), state0, method="RK45",
                        t_eval=t_eval, rtol=cfg.rtol, atol=cfg.atol,
                        events=guard, dense_output=False)
        if sol.status == -1:
            raise ChartDomainError(f"integration failed: {sol.message}")
        truncated = sol.status == 1
        exit_time = float(sol.t_events[0][0]) if truncated else t1
        return sol.t, sol.y.T, truncated, exit_time

    dt = cfg.step if cfg.step is not None else (t1 - t0) / 2000.0
    states = [np.asarray(state0, dtype=float)]
    taken = 0
    for k in range(1, cfg.samples):
        seg0, seg1 = t_eval[k - 1], t_eval[k]
        nsub = max(1, int(np.ceil((seg1 - seg0) / dt)))
        h = (seg1 - seg0) / nsub
        s = states[-1].copy()
        t = seg0
        for _ in range(nsub):
            k1 = rhs(t, s)
            k2 = rhs(t + h / 2, s + h / 2 * k1)
            k3 = rhs(t + h / 2, s + h / 2 * k2)
            k4 = rhs(t + h, s + h * k3)
            s = s + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            taken += 1
            if taken > cfg.max_steps:
                raise ChartDomainError("rk4-fixed exceeded max_steps")
        if _combined_margin(metric, potential, s[:DIM]) <= 0.0:
            return (t_eval[:k], np.array(states), True, float(t_eval[k - 1]))
        states.append(s)
    return t_eval, np.array(states), False, t1


def _drift(metric, t, xs, ys):
    if len(t) == 0:
        return 0.0
    q = [float(metric.pack(x, check=False).g @ y @ y) for x, y in zip(xs, ys)]
    return float(np.max(np.abs(np.asarray(q) - q[0])))


def _trajectory(rhs, cfg, metric, potential, init: PhasePoint,
                deviation=(), rate_channel=None) -> Trajectory:
    """Integrate from init, plus a deviation (w0, v0) in rate_channel."""
    state0 = np.concatenate([init.x, init.y,
                             *(np.asarray(d, float) for d in deviation)])
    t, states, truncated, exit_time = _integrate(rhs, state0, cfg, metric, potential)
    xs, ys = states[:, :DIM], states[:, DIM:2 * DIM]
    w, v = (states[:, 8:12], states[:, 12:16]) if deviation else (None, None)
    return Trajectory(t=t, x=xs, y=ys, truncated=truncated, exit_time=exit_time,
                      norm_drift=_drift(metric, t, xs, ys), method=cfg.method,
                      w=w, v=v, rate_channel=rate_channel)


def integrate_worldline(metric, potential, alpha, init: PhasePoint,
                        cfg: IntegratorConfig) -> Trajectory:
    """Integrate the charged worldline from an initial phase point."""

    def rhs(t, s):
        dx, dy = worldline_rhs(metric, potential, alpha, s[:DIM], s[DIM:])
        return np.concatenate([dx, dy])

    return _trajectory(rhs, cfg, metric, potential, init)


def integrate_geodesic_lc(metric, init: PhasePoint,
                          cfg: IntegratorConfig) -> Trajectory:
    """Metric geodesics straight from the Christoffel symbols.

    Shares no code with the connection pipeline beyond field evaluation;
    used as the independent reference for the pure-gravity reduction.
    """

    def rhs(t, s):
        x, y = s[:DIM], s[DIM:]
        gamma = metric.pack(x, check=False).gamma
        return np.concatenate([y, -np.einsum("ijk,j,k->i", gamma, y, y)])

    return _trajectory(rhs, cfg, metric, None, init)


def integrate_deviation_tidal(metric, potential, alpha, init: PhasePoint,
                              w0, v0, cfg: IntegratorConfig) -> Trajectory:
    """Deviation in the adapted channel: only the tidal tensor drives v."""

    def rhs(t, s):
        x, y, w, v = s[:4], s[4:8], s[8:12], s[12:16]
        frame = field_frame(metric, potential, x, check=False)
        parts = fiber_parts(frame, alpha, y, check=False)
        return np.concatenate([
            y,
            -parts.N @ y,
            v - parts.N @ w,
            parts.E @ w - parts.N @ v,
        ])

    return _trajectory(rhs, cfg, metric, potential, init, (w0, v0), "adapted")


def _classical_pieces(metric, potential, x):
    frame = field_frame(metric, potential, x, check=False)
    nabla_F = (frame.dFmix
               + np.einsum("iak,aj->kij", frame.gamma, frame.Fmix)
               - np.einsum("ajk,ia->kij", frame.gamma, frame.Fmix))
    return frame, nabla_F


def integrate_deviation_classical(metric, potential, alpha, init: PhasePoint,
                                  w0, omega0, cfg: IntegratorConfig) -> Trajectory:
    """Deviation with Levi-Civita rates and the velocity-coupling term.

    Integrates nabla^2 w/ds^2 = alpha (E^i_k w^k + F^i_k nabla w^k/ds)
    with the electric tidal tensor E^i_k = u^j nabla_k F^i_j, the flat
    special-relativistic form.  The initial velocity must be normalized
    (g(u,u) = -1) so the curve parameter is proper time.
    """
    if not metric.is_flat:
        raise ValueError("classical deviation form is only valid on a flat metric")
    q0 = float(metric.pack(init.x).g @ init.y @ init.y)
    if abs(q0 + 1.0) > 1e-8:
        raise ValueError("classical deviation expects g(u,u) = -1 initial velocity")

    def rhs(t, s):
        x, u, w, om = s[:4], s[4:8], s[8:12], s[12:16]
        frame, nabla_F = _classical_pieces(metric, potential, x)
        parts = fiber_parts(frame, alpha, u, check=False)
        E_cl = np.einsum("kij,j->ik", nabla_F, u)
        gu = np.einsum("ijk,j->ik", frame.gamma, u)
        return np.concatenate([
            u,
            -parts.N @ u,
            om - gu @ w,
            -gu @ om + alpha * (E_cl @ w + frame.Fmix @ om),
        ])

    return _trajectory(rhs, cfg, metric, potential, init, (w0, omega0),
                       "levi-civita")


def two_worldline_oracle(metric, potential, alpha, init: PhasePoint, w0, v0,
                         eps, cfg: IntegratorConfig):
    """Finite-difference deviation from a neighboring worldline.

    The neighbor starts at (x0 + eps w0, y0 + eps u0) where u0 = v0 - N w0
    is the coordinate rate matching the adapted initial rate v0.  Returns
    the sampled (x_neighbor - x_reference)/eps and the same for y.
    """
    w0 = np.asarray(w0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    frame = field_frame(metric, potential, init.x)
    parts = fiber_parts(frame, alpha, init.y)
    u0 = v0 - parts.N @ w0
    ref = integrate_worldline(metric, potential, alpha, init, cfg)
    g_n = metric.pack(init.x + eps * w0).g
    neighbor = PhasePoint.create(g_n, init.x + eps * w0, init.y + eps * u0)
    per = integrate_worldline(metric, potential, alpha, neighbor, cfg)
    n = min(len(ref.t), len(per.t))
    w_fd = (per.x[:n] - ref.x[:n]) / eps
    u_fd = (per.y[:n] - ref.y[:n]) / eps
    return SimpleNamespace(t=ref.t[:n], w=w_fd, u=u_fd,
                           truncated=ref.truncated or per.truncated,
                           reference=ref, neighbor=per)


def convert_deviation_frame(metric, potential, alpha, traj: Trajectory,
                            to: str) -> Trajectory:
    """Convert the deviation rate channel along a trajectory.

    The adapted rate and the Levi-Civita rate differ by the contortion
    jacobian: v_adapted = v_lc + B^i_j w^j.  Round trip is the identity.
    """
    if traj.w is None:
        raise ValueError("trajectory carries no deviation data")
    if to not in ("adapted", "levi-civita"):
        raise ValueError(f"unknown rate channel {to!r}")
    if traj.rate_channel == to:
        return traj
    out = np.empty_like(traj.v)
    for i in range(len(traj.t)):
        frame = field_frame(metric, potential, traj.x[i], check=False)
        B1 = fiber_parts(frame, alpha, traj.y[i]).B1
        if to == "levi-civita":
            out[i] = traj.v[i] - B1 @ traj.w[i]
        else:
            out[i] = traj.v[i] + B1 @ traj.w[i]
    return replace(traj, v=out, rate_channel=to)


def natural_parameter(traj: Trajectory, metric):
    """Proper parameter s = t * ||y(0)||; exact because g(y,y) is conserved."""
    nrm0, _ = norm_and_sign(metric.pack(traj.x[0]).g, traj.y[0])
    return traj.t * nrm0


def trajectory_csv(traj: Trajectory) -> str:
    """CSV serialization with shortest round-trip float formatting."""
    cols = ["t"] + [f"x{i}" for i in range(4)] + [f"y{i}" for i in range(4)]
    blocks = [traj.t[:, None], traj.x, traj.y]
    if traj.w is not None:
        cols += [f"w{i}" for i in range(4)] + [f"v{i}" for i in range(4)]
        blocks += [traj.w, traj.v]
    data = np.hstack(blocks)
    lines = [",".join(cols)]
    for row in data:
        lines.append(",".join(repr(float(c)) for c in row))
    if traj.truncated:
        lines.append(f"# truncated: left chart near t={repr(float(traj.exit_time))}")
    return "\n".join(lines) + "\n"
