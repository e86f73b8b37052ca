"""Cross-validation of every identity and field-equation reformulation.

Each check computes its two sides through pipelines that share nothing
beyond raw field evaluation: the tidal trace through the curvature of the
nonlinear connection against base-curvature plus contortion assemblies,
adapted-frame transport against the electromagnetic 2-form, Hessian blocks
against direct contractions.  A passing check is therefore a genuine
numerical confirmation, not a tautology.

The raw field evaluation is the FieldFrame: metric, potential and their
derivatives at the base point.  It is built once per sampled point, with
the rest of the coupling-independent data (base curvature, charge
density, stress-energy), and reused for every coupling; each check's two
sides still run on disjoint paths from it (fiber jet against plain
fiber, phase jet against closed form).  The frame and the fiber parts
build each tensor on first read, so the bench only reads attributes.

Residual policy: every check reports an absolute residual and a relative
one.  The relative denominator is the magnitude of the data feeding the
comparison (for identities whose both sides vanish, the pre-cancellation
scale), so "rel < tol" measures conditioning, not luck.  Residuals under
1e-14 absolute pass outright; exact zeros stay exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .connection import (_d_covariant, _strong_torsion, contortion_vector,
                         field_frame, fiber_parts, phase_context,
                         unit_direction_low)
from .curvature import _hessian_blocks, _trace_decomposition
from .fields import _riemann, _stress_energy_em, current
from .jets import Jet, value_of
from .tensors import DIM, PhasePoint

DEFAULT_ALPHAS = (-1.0, 0.0, 0.5, 1.0, 3.0)

# Structural identities are plain algebra on exact derivatives; the
# field-equation forms stack more derivative layers and meet looser bars.
TOLERANCES = {
    "reconstruction": 1e-9,
    "ricci-hessian": 1e-9,
    "ricci-base-reduction": 1e-9,
    "unit-direction-transport": 1e-9,
    "angular-projection": 1e-9,
    "angular-trace": 1e-9,
    "tidal-orthogonality": 1e-9,
    "homogeneity-ladder": 1e-9,
    "spray-coherence": 1e-10,
    "strong-torsion": 1e-9,
    "curvature-antisymmetry": 1e-9,
    "maxwell-homogeneous": 1e-9,
    "maxwell-homogeneous-cyclic": 1e-8,
    "maxwell-inhomogeneous-quadratic": 1e-8,
    "maxwell-inhomogeneous-divergence": 1e-8,
    "maxwell-variants-agree": 1e-9,
    "trace-decomposition": 1e-8,
    "einstein-trace": 1e-7,
    "einstein-trace-full": 1e-7,
}

_ABS_FLOOR = 1e-14


@dataclass(frozen=True)
class CheckResult:
    check: str
    scenario: str
    point: int
    alpha: float
    x: tuple
    y: tuple
    lhs_magnitude: float
    rhs_magnitude: float
    abs_residual: float
    rel_residual: float
    tol: float
    passed: bool

    def to_dict(self):
        return {
            "check": self.check, "scenario": self.scenario,
            "point": int(self.point), "alpha": float(self.alpha),
            "x": [float(v) for v in self.x], "y": [float(v) for v in self.y],
            "lhs_magnitude": float(self.lhs_magnitude),
            "rhs_magnitude": float(self.rhs_magnitude),
            "abs_residual": float(self.abs_residual),
            "rel_residual": float(self.rel_residual),
            "tol": float(self.tol), "passed": bool(self.passed),
        }


# ---------------------------------------------------------------------------
# per-point bench: everything the checks consume, built once


class _Point:
    """Coupling-independent data at one sampled point, shared by every alpha."""

    def __init__(self, metric, potential, p: PhasePoint):
        self.p = p
        self.y = y = np.asarray(p.y, dtype=float)
        self.frame = fr = field_frame(metric, potential, p.x)
        riem, self.base_ricci = _riemann(fr.gamma, fr.dgamma)
        self.e_trace = float(np.einsum("iaib,a,b->", riem, y, y))
        self.e_scale = float(np.einsum("iaib,a,b->", np.abs(riem),
                                       np.abs(y), np.abs(y)))
        J = current(fr.potential_pack, fr.metric_pack)
        self.rho_c = -float(J @ (fr.g @ (p.y / p.norm)))   # -J^i l_i
        self.nrm2 = p.norm ** 2
        self.eps = p.causal_sign
        self.q = self.eps * self.nrm2
        self.T_em = _stress_energy_em(fr.F, fr.g, fr.ginv)
        # field invariant for the d'Alembertian assembly
        self.F_sq = float(np.einsum("ab,ac,bd,cd->", fr.F, fr.ginv, fr.ginv,
                                    fr.F))


class _Bench:
    """One coupling at a _Point: fiber-jet and plain parts, one phase context."""

    def __init__(self, point: _Point, alpha, nonspray_perturbation=0.0):
        vars(self).update(vars(point))   # the same arrays for every alpha
        self.alpha = float(alpha)
        fr, y = self.frame, self.y
        self.jparts = jp = fiber_parts(fr, alpha, Jet.seed(y, DIM))
        self.E = value_of(jp.E)
        self.N = value_of(jp.N)
        self.G = value_of(jp.G)
        self.B = value_of(jp.B)
        self.B1 = value_of(jp.B1)
        self.B2 = value_of(jp.B2)
        self.B3 = value_of(jp.B3)
        self.Gaff = value_of(jp.Gaff)
        self.R3 = value_of(jp.R3)
        self.h_low = value_of(jp.h_low)
        self.l_up = value_of(jp.l_up)
        self.l_low = value_of(jp.l_low)
        self.block, self.ricci = _hessian_blocks(jp)
        self.trace_E = float(np.trace(self.E))
        self.torsion = _strong_torsion(jp.N, y, nonspray_perturbation)
        self.quad = float(np.einsum("li,il->", self.B1, self.B1))
        F_up = value_of(jp.F_up)
        self.F_vec_sq = float(F_up @ (fr.g @ F_up))
        self.td = _trace_decomposition(fr, fiber_parts(fr, alpha, y),
                                       self.e_trace)
        self.div_closed = self.td.divergence
        ctx = phase_context(fr, alpha, y)
        self.transport = _d_covariant(ctx, unit_direction_low)
        self.div_phase = float(np.einsum(
            "ii->", _d_covariant(ctx, contortion_vector, reference="base")))


def _residual_parts(lhs, rhs, scale=None):
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    lhs_mag = float(np.max(np.abs(lhs))) if lhs.size else 0.0
    rhs_mag = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    abs_res = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
    denom = float(scale) if scale is not None else max(lhs_mag, rhs_mag)
    if abs_res == 0.0:
        rel = 0.0
    elif denom > 0.0:
        rel = abs_res / denom
    else:
        rel = np.inf
    return lhs_mag, rhs_mag, abs_res, rel


def _make_result(check, scenario_id, point, bench, lhs, rhs, scale=None):
    return _judge(check, scenario_id, point, bench,
                  _residual_parts(lhs, rhs, scale))


def _judge(check, scenario_id, point, bench, residual_parts):
    """The pass rule, applied to the parts _residual_parts returns."""
    tol = TOLERANCES[check]
    lhs_mag, rhs_mag, abs_res, rel = residual_parts
    passed = bool(rel <= tol or abs_res <= _ABS_FLOOR)
    return CheckResult(
        check=check, scenario=scenario_id, point=point, alpha=bench.alpha,
        x=tuple(float(v) for v in bench.p.x),
        y=tuple(float(v) for v in bench.p.y),
        lhs_magnitude=lhs_mag, rhs_magnitude=rhs_mag, abs_residual=abs_res,
        rel_residual=float(rel), tol=tol, passed=passed)


# ---------------------------------------------------------------------------
# check groups


def _structural(bench, scenario_id, point):
    b = bench
    y = b.y
    out = []

    recon = np.einsum("jikl,j,l->ik", b.block, y, y)
    out.append(_make_result("reconstruction", scenario_id, point, b,
                            recon, b.E, scale=np.max(np.abs(b.E))))

    contracted = -np.einsum("jiil->jl", b.block)
    out.append(_make_result("ricci-hessian", scenario_id, point, b,
                            b.ricci, contracted,
                            scale=max(np.max(np.abs(b.ricci)),
                                      np.max(np.abs(b.block)))))

    if b.alpha == 0.0:
        out.append(_make_result("ricci-base-reduction", scenario_id, point, b,
                                b.ricci, b.base_ricci,
                                scale=max(float(np.max(np.abs(b.base_ricci))),
                                          float(np.max(np.abs(b.ricci))),
                                          b.e_scale / b.nrm2) or None))

    transport = b.transport
    target = 0.5 * b.alpha * b.frame.F
    # scale includes the connection magnitude: the derivative is assembled
    # from terms of that size even when the result cancels to zero
    transport_scale = max(float(np.max(np.abs(b.frame.F))),
                          float(np.max(np.abs(transport))),
                          float(np.max(np.abs(b.N))) / b.p.norm,
                          float(np.max(np.abs(b.frame.gamma))))
    out.append(_make_result("unit-direction-transport", scenario_id, point, b,
                            transport, target,
                            scale=transport_scale or None))

    Et = b.h_low @ b.E
    E_low = b.frame.g @ b.E
    rhs = E_low - b.eps * np.outer(b.l_low, b.l_low @ b.E)
    out.append(_make_result("angular-projection", scenario_id, point, b,
                            Et, rhs, scale=np.max(np.abs(E_low))))

    raised_trace = float(np.einsum("ik,ki->", b.frame.ginv, Et))
    out.append(_make_result("angular-trace", scenario_id, point, b,
                            raised_trace, b.trace_E,
                            scale=max(abs(b.trace_E), np.max(np.abs(Et)))))

    longitudinal = float(np.einsum("k,i,ik->", b.l_up, b.l_low, b.E))
    out.append(_make_result("tidal-orthogonality", scenario_id, point, b,
                            longitudinal, 0.0, scale=np.max(np.abs(b.E))))

    # homogeneity ladder: each fiber derivative drops the degree by one
    rungs = [
        (b.B1 @ y, 2.0 * b.B, np.abs(b.B)),
        (np.einsum("ijk,k->ij", b.B2, y), b.B1, np.abs(b.B1)),
        (np.einsum("ijkl,l->ijk", b.B3, y), np.zeros((DIM,) * 3), np.abs(b.B2)),
        (np.einsum("ijk,k->ij", b.Gaff, y), b.N, np.abs(b.N)),
        (b.N @ y, 2.0 * b.G, np.abs(b.G)),
    ]
    worst = (0.0, 0.0, 0.0, 0.0)
    for lhs, rhs, scl in rungs:
        scale = max(float(np.max(scl)), float(np.max(np.abs(lhs))))
        parts = _residual_parts(lhs, rhs, scale if scale > 0 else None)
        if parts[3] >= worst[3] or (parts[3] == 0.0 and worst[3] == 0.0
                                    and parts[2] >= worst[2]):
            worst = parts
    out.append(_judge("homogeneity-ladder", scenario_id, point, b, worst))

    out.append(_make_result("spray-coherence", scenario_id, point, b,
                            b.jparts.G.d.T, b.N, scale=np.max(np.abs(b.N))))

    out.append(_make_result("strong-torsion", scenario_id, point, b,
                            b.torsion, np.zeros((DIM, DIM)),
                            scale=max(np.max(np.abs(b.N)),
                                      np.max(np.abs(b.torsion)))))

    out.append(_make_result("curvature-antisymmetry", scenario_id, point, b,
                            b.R3, -np.swapaxes(b.R3, 1, 2),
                            scale=np.max(np.abs(b.R3))))
    return out


def _cyclic_side(bench):
    """-(alpha/2)||y|| (cyclic covariant derivative of F) y^k.

    The cyclic covariant sum over a 2-form collapses to coordinate
    derivatives, so this path touches the connection not at all.
    """
    dF, y = bench.frame.dF, bench.y
    cyc = (np.einsum("kij,k->ij", dF, y)
           + np.einsum("jki,k->ij", dF, y)
           + np.einsum("ijk,k->ij", dF, y))
    return -0.5 * bench.alpha * bench.p.norm * cyc


def _maxwell_homogeneous(bench, scenario_id, point):
    b = bench
    Et = b.h_low @ b.E
    antisym = 0.5 * (Et - Et.T)
    scale = max(float(np.max(np.abs(Et))), float(np.max(np.abs(b.E))))
    r1 = _make_result("maxwell-homogeneous", scenario_id, point, b,
                      antisym, np.zeros((DIM, DIM)),
                      scale=scale if scale > 0 else None)
    cyc = _cyclic_side(b)
    cyc_scale = (abs(b.alpha) * b.p.norm
                 * float(np.max(np.abs(b.frame.dF))) * float(np.max(np.abs(b.y))))
    r2 = _make_result("maxwell-homogeneous-cyclic", scenario_id, point, b,
                      antisym, cyc,
                      scale=max(scale, cyc_scale) or None)
    return [r1, r2]


def _rhs_quadratic(bench):
    b = bench
    return (b.e_trace - 4.0 * np.pi * b.alpha * b.rho_c * b.nrm2
            + b.quad)


def _rhs_divergence(bench):
    b = bench
    return (b.e_trace - 2.0 * np.pi * b.alpha * b.rho_c * b.nrm2
            - b.div_phase + b.quad)


def _maxwell_inhomogeneous(bench, scenario_id, point):
    b = bench
    scale = max(abs(b.trace_E), b.e_scale, abs(b.quad),
                4.0 * np.pi * abs(b.alpha) * abs(b.rho_c) * b.nrm2,
                abs(b.div_phase)) or None
    rhs46 = _rhs_quadratic(b)
    rhs47 = _rhs_divergence(b)
    return [
        _make_result("maxwell-inhomogeneous-quadratic", scenario_id, point, b,
                     b.trace_E, rhs46, scale=scale),
        _make_result("maxwell-inhomogeneous-divergence", scenario_id, point, b,
                     b.trace_E, rhs47, scale=scale),
        _make_result("maxwell-variants-agree", scenario_id, point, b,
                     rhs46, rhs47, scale=scale),
    ]


def _trace_split(bench, scenario_id, point):
    b = bench
    td = b.td
    scale = max(abs(td.lhs), b.e_scale, 2.0 * abs(td.divergence),
                abs(td.quadratic)) or None
    return [_make_result("trace-decomposition", scenario_id, point, b,
                         td.lhs, td.rhs, scale=scale)]


def full_trace_rhs(bench, rho_m=0.0, matter_trace=0.0):
    """Right side of the fully contracted field equation, alpha != 0.

    Assembles the unit-direction d'Alembertian from the base-referenced
    contortion divergence and the field invariants, then the remaining
    divergence and quadratic terms from the closed-form path, so the two
    pipelines cross-check each other inside one equation.
    """
    b = bench
    a2 = b.alpha * b.alpha
    lbox = (b.div_phase + a2 * (0.25 * b.F_sq * b.nrm2
                                - b.eps * b.F_vec_sq)) / b.nrm2
    rhs = (2.0 * b.eps / a2 * lbox
           - (2.0 / b.nrm2) * ((b.eps / a2 + 1.0) * b.div_closed
                               - 0.5 * b.quad)
           - 8.0 * np.pi * (rho_m - 0.5 * b.eps * matter_trace))
    return rhs


def _einstein(bench, scenario_id, point):
    b = bench
    out = []
    T = b.T_em
    T_yy = float(b.y @ T @ b.y)
    T_tr = float(np.einsum("ij,ij->", b.frame.ginv, T))
    rhs = -8.0 * np.pi * (T_yy - 0.5 * T_tr * b.q)
    scale = max(b.e_scale,
                8.0 * np.pi * (abs(T_yy) + 0.5 * abs(T_tr) * b.nrm2)) or None
    out.append(_make_result("einstein-trace", scenario_id, point, b,
                            b.e_trace, rhs, scale=scale))
    if b.alpha != 0.0:
        lhs = b.trace_E / b.nrm2
        rhs_full = full_trace_rhs(b)
        scale_full = max(abs(lhs), abs(rhs_full), b.e_scale / b.nrm2,
                         abs(b.div_closed) / b.nrm2,
                         abs(b.quad) / b.nrm2) or None
        out.append(_make_result("einstein-trace-full", scenario_id, point, b,
                                lhs, rhs_full, scale=scale_full))
    return out


def _bench_checks(bench, scenario, point):
    rows = []
    rows += _structural(bench, scenario.id, point)
    rows += _maxwell_homogeneous(bench, scenario.id, point)
    rows += _maxwell_inhomogeneous(bench, scenario.id, point)
    rows += _trace_split(bench, scenario.id, point)
    if scenario.einstein_consistent:
        rows += _einstein(bench, scenario.id, point)
    return rows


# ---------------------------------------------------------------------------
# sampling and the suite


def sample_phase_points(scenario, n, rng):
    """n chart points with timelike fibers, g(y,y) uniform-ish in [-4, -0.25].

    Fiber components are drawn in a frame that diagonalizes the metric so
    the rejection step is cheap and chart-independent; the returned vectors
    are coordinate components.
    """
    box = scenario.sampling_box
    pts = []
    while len(pts) < n:
        x = rng.uniform(box[:, 0], box[:, 1])
        if not (scenario.metric.guard_ok(x) and scenario.potential.guard_ok(x)):
            continue
        g = scenario.metric.pack(x).g
        lam, V = np.linalg.eigh(g)
        order = np.argsort(lam)
        lam, V = lam[order], V[:, order]
        if not (lam[0] < 0 < lam[1]):
            raise ValueError("metric is not Lorentzian at the sampled point")
        frame_vectors = V / np.sqrt(np.abs(lam))
        for _ in range(1000):
            yhat = np.empty(DIM)
            yhat[0] = rng.uniform(0.6, 2.1)
            yhat[1:] = rng.uniform(-1.0, 1.0, DIM - 1)
            qhat = -yhat[0] ** 2 + float(yhat[1:] @ yhat[1:])
            if -4.0 <= qhat <= -0.25:
                break
        else:
            raise RuntimeError("fiber sampler failed to find a timelike draw")
        y = frame_vectors @ yhat
        pts.append(PhasePoint.create(g, x, y))
    return pts


def run_suite(scenarios, points=50, seed=0, alphas=None, progress=None):
    """Evaluate every check over sampled phase points; deterministic report.

    The report is a plain-JSON dict: identical (scenario set, points,
    alphas, seed, version) give byte-identical serialization.
    """
    alphas = tuple(float(a) for a in (alphas or DEFAULT_ALPHAS))
    ordered = sorted(scenarios, key=lambda s: s.id)
    rng = np.random.default_rng(seed)
    rows = []
    for scenario in ordered:
        pts = sample_phase_points(scenario, points, rng)
        for idx, p in enumerate(pts):
            point = _Point(scenario.metric, scenario.potential, p)
            for alpha in alphas:
                bench = _Bench(point, alpha, scenario.nonspray_perturbation)
                rows += _bench_checks(bench, scenario, idx)
            if progress is not None:
                progress(scenario.id, idx)
    rows.sort(key=lambda r: (r.scenario, r.point, r.alpha, r.check))
    checks = [r.to_dict() for r in rows]
    n_pass = sum(1 for c in checks if c["passed"])
    max_rel = 0.0
    for c in checks:
        if np.isfinite(c["rel_residual"]):
            max_rel = max(max_rel, c["rel_residual"])
    return {
        "version": __version__,
        "seed": int(seed),
        "config": {"points": int(points), "alphas": list(alphas)},
        "scenarios": [s.id for s in ordered],
        "checks": checks,
        "summary": {"pass": int(n_pass), "fail": int(len(checks) - n_pass),
                    "max_rel_residual": float(max_rel)},
    }


def _assembly_scales(point):
    """Pre-cancellation magnitude of the tidal trace, split by coupling order.

    The curvature assembly with absolute values taken term by term, so it
    stays nonzero when the curvature itself cancels to zero (flat space in
    a spherical chart).  Returns the alpha-free part and the coefficient
    of |alpha| ||y||.
    """
    fr = point.frame
    ag, adg = np.abs(fr.gamma), np.abs(fr.dgamma)
    riem_abs = (np.einsum("lijk->ijkl", adg) + np.einsum("kijl->ijkl", adg)
                + np.einsum("hjk,ihl->ijkl", ag, ag)
                + np.einsum("hjl,ihk->ijkl", ag, ag))
    ay = np.abs(point.y)
    return (np.einsum("iaib,a,b->", riem_abs, ay, ay),
            np.einsum("kik,i->", np.abs(fr.dFmix), ay)
            + np.einsum("iak,ak->", ag, np.abs(fr.Fmix)))


def alpha_sweep(scenario, alphas, points=10, seed=0):
    """Tidal traces and residuals across the coupling family.

    Returns one row dict per (sampled point, alpha), suitable for CSV
    emission: traces, the contortion quadratic, the divergence, and the
    relative residuals of the trace identities.
    """
    rng = np.random.default_rng(seed)
    pts = sample_phase_points(scenario, points, rng)
    rows = []
    for idx, p in enumerate(pts):
        point = _Point(scenario.metric, scenario.potential, p)
        grav_scale, charge_scale = _assembly_scales(point)
        for alpha in alphas:
            b = _Bench(point, float(alpha), scenario.nonspray_perturbation)
            assembly_scale = float(grav_scale
                                   + abs(alpha) * charge_scale * p.norm)
            scale = max(abs(b.trace_E), b.e_scale, abs(b.quad),
                        assembly_scale) or None
            quad_res = _make_result("maxwell-inhomogeneous-quadratic",
                                    scenario.id, idx, b,
                                    b.trace_E, _rhs_quadratic(b), scale=scale)
            div_res = _make_result("maxwell-inhomogeneous-divergence",
                                   scenario.id, idx, b,
                                   b.trace_E, _rhs_divergence(b), scale=scale)
            td_res = _make_result("trace-decomposition", scenario.id, idx, b,
                                  b.td.lhs, b.td.rhs, scale=scale)
            rows.append({
                "scenario": scenario.id, "point": idx, "alpha": float(alpha),
                "x": [float(v) for v in p.x], "y": [float(v) for v in p.y],
                "tidal_trace": float(b.trace_E),
                "gravity_trace": float(b.e_trace),
                "contortion_quadratic": float(b.quad),
                "divergence": float(b.div_closed),
                "charge_density": float(b.rho_c),
                "rel_residual_quadratic": float(quad_res.rel_residual),
                "rel_residual_divergence": float(div_res.rel_residual),
                "rel_residual_trace_decomposition": float(td_res.rel_residual),
            })
    return rows


def report_json(report) -> str:
    """Canonical serialization: sorted keys, shortest round-trip floats."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_summary_table(report) -> str:
    """Human-oriented per-check worst-residual table."""
    worst = {}
    for c in report["checks"]:
        key = c["check"]
        cur = worst.get(key)
        if cur is None or c["rel_residual"] > cur["rel_residual"]:
            worst[key] = c
    lines = [f"{'check':34s} {'worst rel':>12s} {'tol':>9s} {'status':>7s}"]
    for key in sorted(worst):
        c = worst[key]
        n_fail = sum(1 for r in report["checks"]
                     if r["check"] == key and not r["passed"])
        status = "ok" if n_fail == 0 else f"{n_fail} FAIL"
        lines.append(f"{key:34s} {c['rel_residual']:12.3e} "
                     f"{c['tol']:9.0e} {status:>7s}")
    s = report["summary"]
    lines.append(f"{s['pass']} passed, {s['fail']} failed, "
                 f"max rel residual {s['max_rel_residual']:.3e}")
    return "\n".join(lines) + "\n"
