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

Two drivers integrate them, both in this module and both stopped by the
chart guard.  ``rk45-adaptive`` is the Dormand-Prince 5(4) pair with
local extrapolation, RMS error control and the quartic dense output that
fills the sample grid (Dormand & Prince 1980; Hairer, Norsett & Wanner,
Solving ODEs I, II.4-II.6); it replays the arithmetic of scipy's RK45 and
solve_ivp, so it gives their trajectories bit for bit without importing
scipy.  ``rk4-fixed`` is classical RK4 on a fixed substep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .connection import field_frame, fiber_parts
from .errors import ChartDomainError, NullFiberError, TidalError
from .jets import einsum
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
    nfev: int                     # right-hand-side evaluations
    accepted: int                 # steps kept (rk4-fixed: substeps)
    rejected: int                 # steps retried smaller (rk4-fixed: 0)
    min_step: float               # shortest and longest accepted step
    max_step: float
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
    m = metric.guard_margins(x).min()
    if potential is not None:
        pm = potential.guard_margins(x)
        if len(pm):
            m = min(m, pm.min())
    return float(m)


_MAX_STEPS_EXCEEDED = ("integrator exceeded max_steps; the step size is too "
                       "small for t_span or, when adaptive, has collapsed "
                       "(stiff or noise-limited right-hand side)")
_TOO_SMALL_STEP = ("integration failed: Required step size is less than "
                   "spacing between numbers.")

# Dormand-Prince 5(4) (Dormand & Prince 1980): nodes C, stages A, the
# fifth-order weights B, the error weights E (fifth minus fourth order,
# FSAL stage last) and the quartic dense-output matrix P of Shampine (1986).
# Each literal is written as scipy's RK45 writes it, so every coefficient
# is the same double and the trajectories match scipy's bit for bit.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_EPS = np.finfo(float).eps
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5          # -1 / (error estimator order + 1)
# stage s of a step: (s, its row of A up to s, its node)
_STAGES = tuple((s, a[:s], c)
                for s, (a, c) in enumerate(zip(_A[1:], _C[1:]), start=1))


def _rms(v):
    # np.sqrt(v.dot(v)) is what np.linalg.norm computes for a 1-D float v
    return np.sqrt(v.dot(v)) / v.size ** 0.5


def _initial_step(fun, t0, y0, t1, f0, rtol, atol):
    """First step from the local error of a trial Euler step (HNW II.4)."""
    interval = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _brentq(f, a, b, xtol=4 * _EPS, rtol=4 * _EPS, maxiter=100):
    """Root of f in [a, b] by Brent's method, as scipy's C brentq takes it."""
    xpre, xcur, xblk = a, b, 0.0
    fpre, fcur, fblk = f(xpre), f(xcur), 0.0
    spre = scur = 0.0
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _dopri45(fun, t0, t1, y0, t_eval, rtol, atol, margin):
    """Dormand-Prince 5(4) from t0 to t1 > t0, sampled at t_eval.

    Error per component is scaled by atol + rtol*|y| and measured in the
    RMS norm; the step grows or shrinks by 0.9*err^(-1/5), within
    [0.2, 10] (no growth right after a rejection).  Samples come from the
    step's quartic dense output, one vectorized call per step.  The run
    stops where margin(state) falls through zero, located by Brent's
    method on the dense output.  Returns (t, states, exit_time, steps),
    exit_time None when the run reached t1 and steps the Trajectory fields
    accepted, rejected, min_step and max_step.
    """
    y = np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must "
                         "be finite.")
    if rtol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.")
        rtol = np.maximum(rtol, 100 * _EPS)
    if atol < 0:
        raise ValueError("`atol` must be positive.")

    f = fun(t0, y)
    h_abs = _initial_step(fun, t0, y, t1, f, rtol, atol)
    K = np.empty((len(_C) + 1, y.size))
    t, g = t0, margin(y)
    ts, ys, i = [], [], 0
    accepted = rejected = 0
    min_step_taken, max_step_taken = np.inf, 0.0
    exit_time = None
    while exit_time is None and t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected_here = False
        while True:
            if h_abs < min_step:
                raise ChartDomainError(_TOO_SMALL_STEP)
            t_new = t + h_abs
            if t_new - t1 > 0:
                t_new = t1
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, a, c in _STAGES:
                K[s] = fun(t + c * h, y + np.dot(K[:s].T, a) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(K.T, _E) * h / scale)
            if err < 1:
                factor = (_MAX_FACTOR if err == 0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected_here else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected_here = True
            rejected += 1
        accepted += 1
        min_step_taken = min(min_step_taken, h)
        max_step_taken = max(max_step_taken, h)
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new

        Q = K.T.dot(_P)

        def dense(tt):
            x = (tt - t_old) / h
            if np.ndim(tt) == 0:
                p = np.cumprod(np.tile(x, 4))
                return h * np.dot(Q, p) + y_old
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            return h * np.dot(Q, p) + y_old[:, None]

        g_new = margin(y)
        if g >= 0 and g_new <= 0:      # the chart guard fell through zero
            exit_time = _brentq(lambda tt: margin(dense(tt)), t_old, t)
            t = exit_time
        g = g_new
        i_new = np.searchsorted(t_eval, t, side="right")
        if i_new > i:
            ts.append(t_eval[i:i_new])
            ys.append(dense(t_eval[i:i_new]))
            i = i_new
    return (np.hstack(ts), np.hstack(ys).T,
            None if exit_time is None else float(exit_time),
            dict(accepted=accepted, rejected=rejected,
                 min_step=float(min_step_taken),
                 max_step=float(max_step_taken)))


def _integrate(rhs, state0, cfg, metric, potential):
    """Shared driver: adaptive or fixed-step, with chart-guard truncation.

    ``rk45-adaptive`` is the in-repo Dormand-Prince 5(4) pair (``_dopri45``)
    with its quartic dense output on the sample grid and the chart guard
    located on that output; ``rk4-fixed`` is classical RK4 with the guard
    checked after every substep.  Returns (states, run), run holding the
    Trajectory fields t, truncated, exit_time, nfev (right-hand-side
    evaluations), accepted and rejected (steps), and min_step and max_step
    (the shortest and longest accepted step).  Samples lie on the
    uniform grid over cfg.t_span; on truncation only in-chart samples are
    kept.
    """
    cfg.validate()
    t0, t1 = map(float, cfg.t_span)
    t_eval = np.linspace(t0, t1, cfg.samples)

    def margin(s):
        return _combined_margin(metric, potential, s[:DIM])

    if cfg.method == "rk45-adaptive":
        nfev = [0]

        def counted(t, s):
            nfev[0] += 1
            if nfev[0] > 6 * cfg.max_steps:   # six stage evaluations per step
                raise TidalError(_MAX_STEPS_EXCEEDED)
            return rhs(t, s)

        t, states, exit_time, steps = _dopri45(
            counted, t0, t1, state0, t_eval, cfg.rtol, cfg.atol, margin)
        return states, dict(t=t, truncated=exit_time is not None,
                            exit_time=t1 if exit_time is None else exit_time,
                            nfev=nfev[0], **steps)

    dt = cfg.step if cfg.step is not None else (t1 - t0) / 2000.0
    states = [np.asarray(state0, dtype=float)]
    taken = 0
    hs = set()                   # the substep of every segment entered

    def steps():
        return dict(nfev=4 * taken, accepted=taken, rejected=0,
                    min_step=float(min(hs)), max_step=float(max(hs)))

    for k in range(1, cfg.samples):
        seg0, seg1 = t_eval[k - 1], t_eval[k]
        nsub = max(1, int(np.ceil((seg1 - seg0) / dt)))
        h = (seg1 - seg0) / nsub
        hs.add(h)
        s = states[-1].copy()
        t = seg0
        for _ in range(nsub):
            k1 = rhs(t, s)
            k2 = rhs(t + h / 2, s + h / 2 * k1)
            k3 = rhs(t + h / 2, s + h / 2 * k2)
            k4 = rhs(t + h, s + h * k3)
            s = s + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            taken += 1
            if taken > cfg.max_steps:
                raise TidalError(_MAX_STEPS_EXCEEDED)
            # guard every substep: between samples a worldline can leave
            # the chart and run off to infinity before the next sample
            if not margin(s) > 0.0:
                return np.array(states), dict(
                    t=t_eval[:k], truncated=True, exit_time=float(t),
                    **steps())
            t += h
        states.append(s)
    return np.array(states), dict(t=t_eval, truncated=False, exit_time=t1,
                                  **steps())


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
    states, run = _integrate(rhs, state0, cfg, metric, potential)
    xs, ys = states[:, :DIM], states[:, DIM:2 * DIM]
    w, v = (states[:, 8:12], states[:, 12:16]) if deviation else (None, None)
    return Trajectory(**run, x=xs, y=ys,
                      norm_drift=_drift(metric, run["t"], xs, ys),
                      method=cfg.method, w=w, v=v, rate_channel=rate_channel)


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
        return np.concatenate([y, -einsum("ijk,j,k->i", gamma, y, y)])

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
               + einsum("iak,aj->kij", frame.gamma, frame.Fmix)
               - einsum("ajk,ia->kij", frame.gamma, frame.Fmix))
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
        E_cl = einsum("kij,j->ik", nabla_F, u)
        gu = einsum("ijk,j->ik", frame.gamma, u)
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
