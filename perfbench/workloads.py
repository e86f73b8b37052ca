"""The benchmark's workloads: seeded inputs, one timed operation and its gate.

Every workload is a closed loop with one caller.  Operation k draws its
inputs from ``numpy.random.default_rng([seed, k])``, so the same seed gives
the same inputs, and a traced pass replays exactly the operations of an
untraced one.

A workload exposes:

- ``n_ops`` and ``inputs(k)``: the fixed operation set of a run (untimed);
- ``run(inp)``: the timed calls into tidalbundle's public API, returning
  ``(output, latencies)``; ``latencies`` maps ``"op"`` to the per-sample
  seconds (one per sampled point for the suite, one per operation
  elsewhere) and each part name to the seconds spent in that part;
- ``gate(inp, out)``: the number of samples whose output is wrong.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import replace

import numpy as np

ALPHAS = (-1.0, 0.0, 0.5, 1.0, 3.0)
DEFAULT_SUITE = ("flat_vacuum", "flat_uniform_b", "schwarzschild_vacuum",
                 "reissner_nordstrom")
ABS_FLOOR = 1e-14            # the suite's outright-pass floor
DRIFT_BOUND = 1e-8           # |g(y,y) - g(y0,y0)|, g(y0,y0) = -1, short spans
TRACE_AGREEMENT = 1e-12      # packet trace vs trace_decomposition lhs, relative
TRAJECTORY_SAMPLES = 21


def op_rng(seed, k):
    return np.random.default_rng([seed, k])


def min_samples(tail_pct):
    """Samples for ten beyond the tail percentile, plus a margin."""
    return math.ceil(10.0 / (1.0 - tail_pct / 100.0)) + 10


def _within(lhs, rhs, tol, scale):
    res = float(np.max(np.abs(np.asarray(lhs, dtype=float)
                              - np.asarray(rhs, dtype=float))))
    return res <= ABS_FLOOR or res <= tol * scale


class Workload:
    name = ""
    unit = "op"
    scenario_ids = DEFAULT_SUITE
    tail_pct = 99
    samples_per_op = 1
    n_ops = 1
    trace_ops = 1
    parts = ()

    def __init__(self, tb, seed):
        self.tb = tb
        self.seed = seed
        self.scenarios = [tb.builtin_scenario(i) for i in self.scenario_ids]

    def oracle(self):
        """Closed-form check run once per run, or None."""
        return None

    def controls(self):
        """(label, workload, inputs) triples that must fail their gate."""
        return []


# ---------------------------------------------------------------------------
# identity suite


class VerifySuite(Workload):
    name = "verify_suite"
    unit = "sampled point"
    tail_pct = 90
    points = 2                 # per scenario per run_suite call
    n_ops = 14                 # run_suite calls: 14 x 2 x 4 = 112 points

    def __init__(self, tb, seed, scenario_ids=None, points=None):
        if scenario_ids is not None:
            self.scenario_ids = tuple(scenario_ids)
        if points is not None:
            self.points = points
        super().__init__(tb, seed)
        self.samples_per_op = len(self.scenarios) * self.points

    def inputs(self, k):
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def run(self, suite_seed):
        lat = []
        mark = [time.perf_counter()]

        def progress(scenario_id, idx):
            now = time.perf_counter()
            lat.append(now - mark[0])
            mark[0] = now

        report = self.tb.run_suite(self.scenarios, points=self.points,
                                   seed=suite_seed, alphas=ALPHAS,
                                   progress=progress)
        return (report, self.tb.report_json(report)), {"op": lat}

    def expected_checks(self):
        """Check count for the config, from the suite's documented check list.

        Per (point, alpha): 10 structural checks (+ ricci-base-reduction at
        alpha = 0), 2 homogeneous and 3 inhomogeneous Maxwell checks, the
        trace decomposition, and on Einstein-consistent scenarios the
        contracted field equation (+ its full form at alpha != 0).
        """
        total = 0
        for s in self.scenarios:
            for a in ALPHAS:
                n = 16 + (a == 0.0)
                if s.einstein_consistent:
                    n += 1 + (a != 0.0)
                total += n
        return total * self.points

    def gate(self, suite_seed, out):
        report, _ = out
        if len(report["checks"]) != self.expected_checks():
            return self.samples_per_op
        bad = {(c["scenario"], c["point"]) for c in report["checks"]
               if not c["passed"]}
        return len(bad)

    @staticmethod
    def fingerprint(out):
        """sha256 of the canonical report bytes."""
        return hashlib.sha256(out[1].encode()).hexdigest()

    @staticmethod
    def checks(out):
        return len(out[0]["checks"])

    def controls(self):
        # the non-spray scenario must fail strong-torsion at every point
        neg = VerifySuite(self.tb, self.seed, ("negative_control",), points=2)
        return [("negative_control scenario through the suite gate",
                 neg, neg.inputs(0))]


# ---------------------------------------------------------------------------
# trajectory ensemble


def _draw_rn(tb, s, rng):
    """Near-circular charged orbit off the equator: it stays far outside the
    horizon and away from the polar axis over the span."""
    r, th = rng.uniform(10.0, 20.0), rng.uniform(1.0, 2.1)
    x = np.array([0.0, r, th, rng.uniform(0.0, 2.0 * np.pi)])
    omega = rng.uniform(0.8, 1.1) * r ** -1.5 / np.sin(th)
    y = np.array([1.0, rng.uniform(-0.03, 0.03), rng.uniform(-0.002, 0.002), omega])
    return x, tb.normalize_velocity(s.metric.pack(x).g, y, -1.0), None, None


def _draw_flat(tb, s, rng):
    x = np.r_[0.0, rng.uniform(-1.0, 1.0, 3)]
    v = np.r_[1.0, rng.uniform(-0.5, 0.5, 3)]
    y = tb.normalize_velocity(np.diag([-1.0, 1.0, 1.0, 1.0]), v, -1.0)
    return x, y, None, None


def _draw_flat_deviation(tb, s, rng):
    x, y, _, _ = _draw_flat(tb, s, rng)
    return x, y, np.r_[0.0, rng.uniform(-1.0, 1.0, 3)], np.zeros(4)


def _draw_circular(tb, s, rng):
    """Near-circular equatorial geodesic with a radial/angular separation."""
    r = rng.uniform(8.0, 20.0)
    x = np.array([0.0, r, np.pi / 2, rng.uniform(0.0, 2.0 * np.pi)])
    y = np.array([1.0, 0.0, 0.0, r ** -1.5 * (1.0 + rng.uniform(-0.05, 0.05))])
    w0 = np.array([0.0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0) / r,
                   rng.uniform(-1.0, 1.0) / r])
    return x, y, w0, np.zeros(4)


class Integrate(Workload):
    """One operation is one ensemble member: four short trajectories.

    The spans are fixed per scenario and short, so the four costs are of
    one order and an operation's latency is unimodal.
    """

    name = "integrate"
    unit = "ensemble member"
    tail_pct = 90
    n_ops = 110
    trace_ops = 4
    parts = ("worldline", "deviation")
    # (part, scenario id, span, draw)
    members = (("worldline", "reissner_nordstrom", 20.0, _draw_rn),
               ("worldline", "flat_uniform_b", 0.5, _draw_flat),
               ("deviation", "schwarzschild_circular", 10.0, _draw_circular),
               ("deviation", "cyclotron", 0.2, _draw_flat_deviation))

    def __init__(self, tb, seed):
        self.scenario_ids = tuple(m[1] for m in self.members)
        super().__init__(tb, seed)
        self.by_id = {s.id: s for s in self.scenarios}

    def inputs(self, k):
        rng = op_rng(self.seed, k)
        return [(part, sid, span) + draw(self.tb, self.by_id[sid], rng)
                for part, sid, span, draw in self.members]

    def _trajectory(self, part, s, x, y, w0, v0, cfg):
        init = self.tb.phase_point(s.metric, x, y)
        if part == "worldline":
            return self.tb.integrate_worldline(s.metric, s.potential, s.alpha,
                                               init, cfg)
        return self.tb.integrate_deviation_tidal(s.metric, s.potential, s.alpha,
                                                 init, w0, v0, cfg)

    def run(self, inp):
        lat = dict.fromkeys(self.parts, 0.0)
        out = []
        for part, sid, span, x, y, w0, v0 in inp:
            s = self.by_id[sid]
            cfg = replace(s.integrator, t_span=(0.0, span),
                          samples=TRAJECTORY_SAMPLES)
            t0 = time.perf_counter()
            out.append(self._trajectory(part, s, x, y, w0, v0, cfg))
            lat[part] += time.perf_counter() - t0
        return out, {"op": [sum(lat.values())],
                     **{p: [v] for p, v in lat.items()}}

    def gate(self, inp, out):
        for traj in out:
            if (traj.truncated or len(traj.t) != TRAJECTORY_SAMPLES
                    or not traj.norm_drift <= DRIFT_BOUND
                    or not np.all(np.isfinite(traj.y))):
                return 1
        return 0

    def oracle(self):
        """The cyclotron closes its orbit after one period (closed form)."""
        s = self.by_id["cyclotron"]
        omega = s.alpha * s.potential.params["B"]
        if abs(s.integrator.t_span[1] * omega - 2.0 * np.pi) > 1e-12:
            return False, "cyclotron scenario span is not one period"
        p = s.initial_point
        traj = self._trajectory("worldline", s, p.x, p.y, None, None,
                                s.integrator)
        radius = float(np.linalg.norm(p.y[1:])) / omega
        ok = (not traj.truncated
              and np.all(np.abs(traj.x[-1, 1:3] - traj.x[0, 1:3]) <= 1e-9 * radius)
              and np.all(np.abs(traj.y[-1] - traj.y[0]) <= 1e-10))
        return bool(ok), f"cyclotron closes after one period (radius {radius:.6g})"

    def controls(self):
        """An out-of-chart start, and an in-chart start that falls out of it."""
        good = self.inputs(0)
        part, sid, span, _, y, w0, v0 = good[0]
        s = self.by_id[sid]
        r_h = 2.0 * s.metric.params["M"]     # at or outside the horizon of both metrics
        inside = np.array([0.0, 0.75 * r_h, np.pi / 2, 0.0])
        near = np.array([0.0, 1.25 * r_h, np.pi / 2, 0.0])
        infall = self.tb.normalize_velocity(s.metric.pack(near).g,
                                            np.array([1.0, -0.1, 0.0, 0.0]), -1.0)
        return [("out-of-chart initial condition", self,
                 [(part, sid, span, inside, y, w0, v0)] + good[1:]),
                ("initial condition that leaves the chart", self,
                 [(part, sid, span, near, infall, w0, v0)] + good[1:])]


# ---------------------------------------------------------------------------
# independent single-point queries


class PointQueries(Workload):
    """Three cold calls at a fresh sampled point and coupling per operation.

    The calls share nothing: each builds its own frame and fiber data, as a
    user querying one point would.
    """

    name = "point_queries"
    unit = "point"
    tail_pct = 95
    n_ops = 1010
    trace_ops = 50
    parts = ("connection", "packet", "transport")

    def __init__(self, tb, seed):
        super().__init__(tb, seed)
        self.tol = tb.verify.TOLERANCES

    def inputs(self, k):
        rng = op_rng(self.seed, k)
        s = self.scenarios[int(rng.integers(len(self.scenarios)))]
        alpha = ALPHAS[int(rng.integers(len(ALPHAS)))]
        p = self.tb.sample_phase_points(s, 1, rng)[0]
        return s, alpha, p

    def run(self, inp):
        s, alpha, p = inp
        tb, m, a = self.tb, s.metric, s.potential
        t0 = time.perf_counter()
        cd = tb.connection_data(m, a, alpha, p)
        t1 = time.perf_counter()
        packet = tb.tidal_packet(m, a, alpha, p)
        t2 = time.perf_counter()
        transport = tb.d_covariant_derivative(m, a, alpha, p,
                                              tb.connection.unit_direction_low)
        t3 = time.perf_counter()
        return (cd, packet, transport), {
            "op": [t3 - t0], "connection": [t1 - t0], "packet": [t2 - t1],
            "transport": [t3 - t2]}

    def gate(self, inp, out):
        cd, packet, transport = out
        s, alpha, p = inp
        tb = self.tb
        # homogeneity of the plain tier: G^i_jk y^k = N^i_j, B^i_j y^j = 2 B^i
        tol = self.tol["homogeneity-ladder"]
        gy = cd.affine @ p.y
        by = cd.contortion.jacobian @ p.y
        ok = (_within(gy, cd.nonlinear, tol,
                      max(np.max(np.abs(cd.nonlinear)), np.max(np.abs(gy))))
              and _within(by, 2.0 * cd.contortion.vector, tol,
                          max(2.0 * np.max(np.abs(cd.contortion.vector)),
                              np.max(np.abs(by)))))
        # the packet's trace (fiber-jet path) against trace_decomposition
        # (plain path): the same algebra, so equal to rounding; and the split
        td = tb.trace_decomposition(s.metric, s.potential, alpha, p)
        scale = max(abs(td.lhs), abs(td.gravity_trace),
                    2.0 * abs(td.divergence), abs(td.quadratic))
        ok = (ok and _within(packet.tidal_trace, td.lhs, TRACE_AGREEMENT, scale)
              and _within(td.lhs, td.rhs, self.tol["trace-decomposition"], scale))
        # unit-direction transport D_k l_j = (alpha/2) F_jk, on the suite's
        # scale: the connection terms the derivative is assembled from
        F, _ = tb.faraday(s.potential, p.x)
        scale = max(np.max(np.abs(F)), np.max(np.abs(transport)),
                    np.max(np.abs(cd.nonlinear)) / p.norm,
                    np.max(np.abs(cd.christoffel)))
        ok = ok and _within(transport, 0.5 * alpha * F,
                            self.tol["unit-direction-transport"], scale)
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (VerifySuite, Integrate, PointQueries)}
