"""Cross-validation of every identity and field-equation reformulation.

Each check computes its two sides through pipelines that share nothing
beyond raw field evaluation: the tidal trace through the curvature of the
nonlinear connection against base-curvature plus contortion assemblies,
adapted-frame transport against the electromagnetic 2-form, Hessian blocks
against direct contractions.  A passing check is therefore a genuine
numerical confirmation, not a tautology.

The raw field evaluation is the FieldFrame: metric, potential and their
derivatives at the base point, and the mixed field strength F^i_j that
every fiber tier reads.  It is built once per sampled point, with
the rest of the coupling-independent data (charge density, stress-energy,
residual scales), and reused for every coupling; each check's two sides
still run on disjoint paths from it (fiber jet against plain fiber, phase
jet against closed form).  The bench is one connection.Sample per sampled
point over the array of all its couplings: each of its plain, fiber-jet
and phase-jet tiers is one FiberParts built once, at that array, whose
alpha-free data (||y||, l, h, gamma y, the base derivatives and the
brackets of the contortion family, on the frame's F^i_j) serve every
coupling, and whose alpha-scaled contortion, N, G^i_jk and curvature of
N carry a coupling axis (after any jet axes, before the tensor slots)
and are built in one pass for every coupling.  The check groups read its
tiers (b.jet, b.plain, b.phase) and the point's data (b.p, b.e_scale,
...) directly, and each tensor is built on its first read, once.

Residual policy: every check is one row (check, lhs, rhs, scale, at)
over the bench's couplings, all judged in one pass.  A row holds every
coupling, or the subset at where the check applies (ricci-base-reduction
at alpha = 0, einstein-trace-full at alpha != 0).  Per coupling it gives
max|lhs|, max|rhs|, the absolute residual max|lhs - rhs| over the tensor
slots, and rel, that residual over the row's scale: the magnitude of the
data feeding the comparison (for identities whose both sides vanish, the
pre-cancellation scale), so "rel < tol" measures conditioning, not luck.
Each check name has one scale, shared by the suite and by alpha_sweep;
the trace-level checks (the inhomogeneous Maxwell forms and the trace
decomposition) include the term-by-term magnitude of the curvature
assembly.  A zero scale falls back to the larger side (max|lhs| if NaN);
a denominator that is not positive gives rel = inf, exact zeros stay
exact, and residuals under 1e-14 absolute pass outright.  A check with
several rows (the homogeneity ladder's rungs) is judged at each coupling
by its worst row, the last with the largest rel, a NaN rel worst of all.
Every reduction is a max, exact in any order.

The report (schema 2): each sampled point is stored once in points, with
its x, y, causal sign and conditioning number max|y|^2 / |g(y,y)|, and
each check name once in check_summary, with its tol, worst rel (a NaN
rel is the worst), headroom (worst rel / tol) and failure count.  The
judge emits each verdict as a checks row naming its point by (scenario,
point); run_suite sorts the rows and folds them into the summaries in one
pass.  report_json is json.dumps(report, indent=2, sort_keys=True) plus a
newline; the checks rows go through the json C encoder, in one call, and
give the same bytes.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import __version__
from .connection import (Sample, contortion_vector, field_frame,
                         unit_direction_low)
from .errors import ChartDomainError
from .fields import cached_property, current, stress_energy_em
from .jets import einsum
from .tensors import DIM, PhasePoint, eigh

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


# ---------------------------------------------------------------------------
# per-point bench: everything the checks consume, built once


class _Bench(Sample):
    """Every coupling at one sampled point: a Sample over a batch of them.

    alphas is a 1-D array of couplings: each tier is built once, at that
    array, and its coupling-dependent tensors carry the coupling axis
    first.  The check groups read the tiers directly (b.jet.E.v) and the
    point's coupling-independent data (b.p, b.e_scale, ...), built here;
    the per-coupling scalars that more than one group reads are cached
    here too.
    """

    def __init__(self, metric, potential, p: PhasePoint, alphas,
                 nonspray_perturbation=0.0):
        fr = field_frame(metric, potential, p.x)
        super().__init__(fr, np.asarray(alphas, dtype=float), p.y,
                         nonspray_perturbation)
        self.p, y = p, self.y
        self.e_scale = float(einsum("iaib,a,b->", np.abs(fr.riemann),
                                    np.abs(y), np.abs(y)))
        J = current(fr.potential_pack, fr.metric_pack)
        self.rho_c = -float(J @ (fr.g @ (p.y / p.norm)))   # -J^i l_i
        self.nrm2 = p.norm ** 2
        self.eps = p.causal_sign
        self.T_em = stress_energy_em(fr.F, fr.g, fr.ginv)
        # field invariant for the d'Alembertian assembly
        self.F_sq = float(einsum("ab,ac,bd,cd->", fr.F, fr.ginv, fr.ginv,
                                 fr.F))
        # pre-cancellation size of the tidal trace: the curvature assembly
        # with absolute values taken term by term, so it stays nonzero where
        # the curvature cancels (flat space in a spherical chart); the
        # alpha-free part and the coefficient of |alpha| ||y||
        ag, adg = np.abs(fr.gamma), np.abs(fr.dgamma)
        riem_abs = (einsum("lijk->ijkl", adg) + einsum("kijl->ijkl", adg)
                    + einsum("hjk,ihl->ijkl", ag, ag)
                    + einsum("hjl,ihk->ijkl", ag, ag))
        ay = np.abs(y)
        self.grav_scale = einsum("iaib,a,b->", riem_abs, ay, ay)
        self.charge_scale = (einsum("kik,i->", np.abs(fr.dFmix), ay)
                             + einsum("iak,ak->", ag, np.abs(fr.Fmix)))

    @cached_property
    def trace_E(self):
        return self.jet.E.v.trace(axis1=-2, axis2=-1)

    @cached_property
    def angular_E(self):
        """The angular tidal tensor h_ik E^k_j from the fiber-jet tier."""
        return self.jet.h_low.v @ self.jet.E.v

    @cached_property
    def quad(self):
        """The contortion quadratic B^l_i B^i_l from the fiber-jet tier."""
        B1 = self.jet.B1.v
        return einsum("...li,...il->...", B1, B1)

    @cached_property
    def div_phase(self):
        """Levi-Civita divergence of B through the phase jets."""
        return einsum("...ii->...", self.covariant(contortion_vector,
                                                   reference="base"))

    @cached_property
    def assembly_scale(self):
        return (self.grav_scale
                + np.abs(self.alpha) * self.charge_scale * self.p.norm)

    @cached_property
    def nonzero(self):
        """Indices of the couplings alpha != 0."""
        return np.flatnonzero(self.alpha != 0.0)


class _Row(NamedTuple):
    """One check, lhs against rhs, at some couplings of a bench.

    at indexes the bench's couplings the row holds (None: all of them).
    lhs leads with that coupling axis; rhs broadcasts against lhs, and
    scale against one value per coupling.
    """

    check: str
    lhs: object
    rhs: object
    scale: object
    at: object = None


def _scale(*terms):
    """The largest of the terms' magnitudes at each coupling.

    A term is a float, one value per coupling, or a tensor whose leading
    axis is the coupling: its magnitude is max|term| over the trailing
    axes (exact in any order).  The terms are compared by Python's max
    rule, so a NaN wins only when it comes first.
    """
    mags = (a.reshape(len(a), -1).max(axis=1) if a.ndim > 1 else a
            for a in map(np.abs, terms))
    return reduce(lambda top, x: np.where(x > top, x, top), mags)


def _checks(groups, bench, scenario_id, point):
    """Judge every row the groups yield at one bench, in one pass.

    Each row's lhs, rhs and lhs - rhs fill one block of a flat buffer, one
    reduceat takes every per-coupling max, and one stable sort finds each
    worst row.  The pass rule: rel <= tol, or under the absolute floor.
    Each verdict is the report's own row dict (plain Python values), its
    keys in sorted order, so report_json's encoder need not reorder them.
    """
    verdicts, rows, named = {}, [], []      # check -> its first verdict
    for group in groups:
        for check, lhs, rhs, scale, at in group(bench):
            lhs = np.asarray(lhs, dtype=float)
            if check not in verdicts:
                verdicts[check] = len(named)
                named += [(check, alpha) for alpha in (
                    bench.alpha if at is None else bench.alpha[at]).tolist()]
            rows.append((lhs, rhs, scale, verdicts[check], len(lhs), lhs.size))
    lhs, rhs, scale, *counts = zip(*rows)
    first, n, size = map(np.array, counts)
    stops, ends = np.cumsum(size), np.cumsum(n)
    sides, scales = np.empty((3, stops[-1])), np.empty(ends[-1])
    np.concatenate(lhs, axis=None, out=sides[0])
    for a, b, s, stop, end in zip(lhs, rhs, scale, stops.tolist(),
                                  ends.tolist()):
        sides[1, stop - a.size:stop].reshape(a.shape)[...] = b
        scales[end - len(a):end] = s
    np.subtract(sides[0], sides[1], out=sides[2])
    seg = np.repeat(size // n, n)          # one segment per (row, coupling)
    lhs_mag, rhs_mag, abs_res, rel = out = np.full((4, ends[-1]), np.inf)
    np.maximum.reduceat(np.abs(sides, out=sides), np.cumsum(seg) - seg,
                        axis=1, out=out[:3])
    denom = np.where(scales != 0.0, scales,
                     np.where(rhs_mag > lhs_mag, rhs_mag, lhs_mag))
    np.divide(abs_res, denom, out=rel, where=denom > 0.0)
    rel[abs_res == 0.0] = 0.0
    # an entry's verdict is its check's first plus its coupling; sorted
    # stably by (verdict, rel), NaN last, each verdict ends at its worst
    verdict = np.arange(len(rel)) - np.repeat(ends - n - first, n)
    worst = np.lexsort((rel, verdict))[np.cumsum(np.bincount(verdict)) - 1]
    return [{"abs_residual": abs_res, "alpha": alpha, "check": check,
             "lhs_magnitude": lhs_mag,
             "passed": rel <= TOLERANCES[check] or abs_res <= _ABS_FLOOR,
             "point": point, "rel_residual": rel, "rhs_magnitude": rhs_mag,
             "scenario": scenario_id}
            for (check, alpha), (lhs_mag, rhs_mag, abs_res, rel) in zip(
                named, out[:, worst].T.tolist())]


# ---------------------------------------------------------------------------
# check groups: each yields rows (check, lhs, rhs, scale, at) from one bench


def _structural(b):
    jp, y = b.jet, b.y
    E, N = jp.E.v, jp.N.v
    yield _Row("reconstruction",
               einsum("...jikl,j,l->...ik", b.block, y, y), E, _scale(E))

    yield _Row("ricci-hessian", b.ricci, -einsum("...jiil->...jl", b.block),
               _scale(b.ricci, b.block))

    zero = np.flatnonzero(b.alpha == 0.0)
    if zero.size:
        ricci = b.ricci[zero]
        yield _Row("ricci-base-reduction", ricci, b.frame.ricci,
                   _scale(float(np.max(np.abs(b.frame.ricci))), ricci,
                          b.e_scale / b.nrm2), zero)

    # scale includes the connection magnitude: the derivative is assembled
    # from terms of that size even when the result cancels to zero
    transport = b.covariant(unit_direction_low)
    yield _Row("unit-direction-transport", transport,
               (0.5 * b.alpha)[:, None, None] * b.frame.F,
               _scale(float(np.max(np.abs(b.frame.F))), transport,
                      N / b.p.norm,
                      float(np.max(np.abs(b.frame.gamma)))))

    l_low = jp.l_low.v
    Et = b.angular_E
    E_low = b.frame.g @ E
    yield _Row("angular-projection", Et,
               E_low - b.eps * (l_low[:, None] * (l_low @ E)[:, None, :]),
               _scale(E_low))

    yield _Row("angular-trace", einsum("ik,...ki->...", b.frame.ginv, Et),
               b.trace_E, _scale(b.trace_E, Et))

    yield _Row("tidal-orthogonality",
               einsum("k,i,...ik->...", jp.l_up.v, l_low, E), 0.0, _scale(E))

    # homogeneity ladder: each fiber derivative drops the degree by one;
    # one row per rung, judged by its worst
    B, B1, B2, G = jp.B.v, jp.B1.v, jp.B2.v, jp.G.v
    for lhs, rhs, scl in (
            (B1 @ y, 2.0 * B, B),
            (einsum("...ijk,k->...ij", B2, y), B1, B1),
            (einsum("...ijkl,l->...ijk", jp.B3, y),
             np.zeros((DIM,) * 3), B2),
            (einsum("...ijk,k->...ij", jp.Gaff.v, y), N, N),
            (N @ y, 2.0 * G, G)):
        yield _Row("homogeneity-ladder", lhs, rhs, _scale(scl, lhs))

    yield _Row("spray-coherence", einsum("j...i->...ij", jp.G.d), N,
               _scale(N))

    yield _Row("strong-torsion", b.torsion, np.zeros((DIM, DIM)),
               _scale(N, b.torsion))

    R3 = jp.R3.v
    yield _Row("curvature-antisymmetry", R3, -np.swapaxes(R3, -1, -2),
               _scale(R3))


def _cyclic_side(bench):
    """-(alpha/2)||y|| (cyclic covariant derivative of F) y^k.

    The cyclic covariant sum over a 2-form collapses to coordinate
    derivatives, so this path touches the connection not at all.
    """
    dF, y = bench.frame.dF, bench.y
    cyc = (einsum("kij,k->ij", dF, y)
           + einsum("jki,k->ij", dF, y)
           + einsum("ijk,k->ij", dF, y))
    return (-0.5 * bench.alpha * bench.p.norm)[:, None, None] * cyc


def _maxwell_homogeneous(b):
    E, Et = b.jet.E.v, b.angular_E
    antisym = 0.5 * (Et - np.swapaxes(Et, -1, -2))
    scale = _scale(Et, E)
    yield _Row("maxwell-homogeneous", antisym, np.zeros((DIM, DIM)), scale)
    cyc_scale = (np.abs(b.alpha) * b.p.norm
                 * float(np.max(np.abs(b.frame.dF))) * float(np.max(np.abs(b.y))))
    yield _Row("maxwell-homogeneous-cyclic", antisym, _cyclic_side(b),
               _scale(scale, cyc_scale))


def _maxwell_inhomogeneous(b):
    e_trace = b.td.gravity_trace
    source = 4.0 * np.pi * b.alpha * b.rho_c * b.nrm2
    scale = _scale(b.trace_E, b.e_scale, b.quad, source, b.div_phase,
                   b.assembly_scale)
    quadratic = e_trace - source + b.quad
    divergence = (e_trace - 2.0 * np.pi * b.alpha * b.rho_c * b.nrm2
                  - b.div_phase + b.quad)
    yield _Row("maxwell-inhomogeneous-quadratic", b.trace_E, quadratic, scale)
    yield _Row("maxwell-inhomogeneous-divergence", b.trace_E, divergence,
               scale)
    yield _Row("maxwell-variants-agree", quadratic, divergence, scale)


def _trace_split(b):
    td = b.td
    yield _Row("trace-decomposition", td.lhs, td.rhs,
               _scale(td.lhs, b.e_scale, 2.0 * td.divergence, td.quadratic,
                      b.assembly_scale))


def full_trace_rhs(bench):
    """Right side of the fully contracted field equation at alpha != 0.

    One value per coupling in bench.nonzero.  Assembles the
    unit-direction d'Alembertian from the base-referenced contortion
    divergence and the field invariants, then the remaining divergence
    and quadratic terms from the closed-form path, so the two pipelines
    cross-check each other inside one equation.
    """
    b, at = bench, bench.nonzero
    alpha = b.alpha[at]
    a2 = alpha * alpha
    F_up = b.jet.F_up.v
    F_vec_sq = float(F_up @ (b.frame.g @ F_up))
    lbox = (b.div_phase[at] + a2 * (0.25 * b.F_sq * b.nrm2
                                    - b.eps * F_vec_sq)) / b.nrm2
    return (2.0 * b.eps / a2 * lbox
            - (2.0 / b.nrm2) * ((b.eps / a2 + 1.0) * b.td.divergence[at]
                                - 0.5 * b.quad[at]))


def _einstein(b):
    T = b.T_em
    T_yy = float(b.y @ T @ b.y)
    T_tr = float(einsum("ij,ij->", b.frame.ginv, T))
    yield _Row("einstein-trace", np.full(len(b.alpha), b.td.gravity_trace),
               -8.0 * np.pi * (T_yy - 0.5 * T_tr * (b.eps * b.nrm2)),
               max(b.e_scale,
                   8.0 * np.pi * (abs(T_yy) + 0.5 * abs(T_tr) * b.nrm2)))
    at = b.nonzero
    if at.size:
        lhs = b.trace_E[at] / b.nrm2
        rhs = full_trace_rhs(b)
        yield _Row("einstein-trace-full", lhs, rhs,
                   _scale(lhs, rhs, b.e_scale / b.nrm2,
                          b.td.divergence[at] / b.nrm2,
                          b.quad[at] / b.nrm2), at)


_GROUPS = (_structural, _maxwell_homogeneous, _maxwell_inhomogeneous,
           _trace_split)


# ---------------------------------------------------------------------------
# sampling and the suite


def sample_phase_points(scenario, n, rng):
    """n chart points with timelike fibers, g(y,y) uniform-ish in [-4, -0.25].

    Fiber components are drawn in a frame that diagonalizes the metric so
    the rejection step is cheap and chart-independent; the returned vectors
    are coordinate components.  A box whose draws miss the chart 1000
    times in a row raises ChartDomainError.
    """
    box = scenario.sampling_box
    pts, misses = [], 0
    while len(pts) < n:
        x = rng.uniform(box[:, 0], box[:, 1])
        if not (scenario.metric.guard_ok(x) and scenario.potential.guard_ok(x)):
            misses += 1
            if misses == 1000:
                raise ChartDomainError(
                    f"scenario {scenario.id!r}: 1000 draws in a row from "
                    f"sampling.box {box.tolist()} fell outside the chart")
            continue
        misses = 0
        g = scenario.metric.pack(x).g
        lam, V = eigh(g)
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


def _worse(worst, rel):
    """The worse of two relative residuals; a NaN is the worst, whatever
    the order of the rows."""
    return rel if rel > worst or math.isnan(rel) else worst


def _grid(alphas, points):
    """The couplings as floats; non-finite ones, or points < 0, are refused."""
    alphas = tuple(float(a) for a in alphas)
    if not all(map(math.isfinite, alphas)):
        raise ValueError(f"couplings must be finite, got {list(alphas)}")
    if points < 0:
        raise ValueError(f"points must be non-negative, got {points}")
    return alphas


def run_suite(scenarios, points=50, seed=0, alphas=None, progress=None):
    """Evaluate every check over sampled phase points; deterministic report.

    alphas=None runs DEFAULT_ALPHAS; an empty sequence, a non-finite
    coupling or a negative point count raises ValueError.

    The report is a plain-JSON dict: identical (scenario set, points,
    alphas, seed, version) give byte-identical serialization.
    """
    alphas = _grid(DEFAULT_ALPHAS if alphas is None else alphas, points)
    if not alphas:
        raise ValueError("run_suite needs at least one coupling")
    ordered = sorted(scenarios, key=lambda s: s.id)
    rng = np.random.default_rng(seed)
    sampled, checks = [], []
    for scenario in ordered:
        groups = _GROUPS + ((_einstein,) if scenario.einstein_consistent
                            else ())
        pts = sample_phase_points(scenario, points, rng)
        for idx, p in enumerate(pts):
            sampled.append({
                "scenario": scenario.id, "point": idx,
                "x": p.x.tolist(), "y": p.y.tolist(),
                "causal_sign": p.causal_sign,
                "conditioning": float(np.abs(p.y).max()) ** 2 / p.norm ** 2})
            bench = _Bench(scenario.metric, scenario.potential, p, alphas,
                           scenario.nonspray_perturbation)
            checks += _checks(groups, bench, scenario.id, idx)
            if progress is not None:
                progress(scenario.id, idx)
    checks.sort(key=itemgetter("scenario", "point", "alpha", "check"))
    by_check = {}
    for c in checks:
        entry = by_check.get(c["check"])
        if entry is None:
            entry = by_check[c["check"]] = {
                "tol": TOLERANCES[c["check"]], "worst_rel": 0.0, "failures": 0}
        entry["worst_rel"] = _worse(entry["worst_rel"], c["rel_residual"])
        entry["failures"] += not c["passed"]
    max_rel = 0.0
    for entry in by_check.values():
        entry["headroom"] = entry["worst_rel"] / entry["tol"]
        max_rel = _worse(max_rel, entry["worst_rel"])
    n_fail = sum(entry["failures"] for entry in by_check.values())
    return {
        "schema": 2,
        "version": __version__,
        "seed": int(seed),
        "config": {"points": int(points), "alphas": list(alphas)},
        "scenarios": [s.id for s in ordered],
        "points": sampled,
        "checks": checks,
        "check_summary": by_check,
        "summary": {"pass": len(checks) - n_fail, "fail": n_fail,
                    "max_rel_residual": float(max_rel)},
    }


def alpha_sweep(scenario, alphas, points=10, seed=0):
    """Tidal traces and residuals across the coupling family.

    Returns one row dict per (sampled point, alpha), suitable for CSV
    emission: traces, the contortion quadratic, the divergence, and the
    relative residuals of the trace identities, judged by the suite's own
    checks.  A non-finite coupling or negative points raise ValueError.
    """
    alphas = _grid(alphas, points)
    if len(alphas) == 0:
        return []
    rows = []
    pts = sample_phase_points(scenario, points, np.random.default_rng(seed))
    for idx, p in enumerate(pts):
        b = _Bench(scenario.metric, scenario.potential, p, alphas,
                   scenario.nonspray_perturbation)
        rel = {}
        for r in _checks((_maxwell_inhomogeneous, _trace_split), b,
                         scenario.id, idx):
            rel.setdefault(r["check"], []).append(r["rel_residual"])
        td = b.td
        for k, alpha in enumerate(b.alpha.tolist()):
            rows.append({
                "scenario": scenario.id, "point": idx, "alpha": alpha,
                "x": [float(v) for v in p.x], "y": [float(v) for v in p.y],
                "tidal_trace": float(b.trace_E[k]),
                "gravity_trace": float(td.gravity_trace),
                "contortion_quadratic": float(b.quad[k]),
                "divergence": float(td.divergence[k]),
                "charge_density": float(b.rho_c),
                "rel_residual_quadratic":
                    rel["maxwell-inhomogeneous-quadratic"][k],
                "rel_residual_divergence":
                    rel["maxwell-inhomogeneous-divergence"][k],
                "rel_residual_trace_decomposition":
                    rel["trace-decomposition"][k],
            })
    return rows


_SCALARS = {str, int, float, bool, type(None)}
_ROW_INDENT = "\n" + 6 * " "         # a checks row's keys, under indent=2


def _checks_text(rows):
    """The checks rows as indent=2 writes them between the table's
    brackets, through the C encoder in one call; None for a table that is
    not a list of non-empty dicts of str keys and scalar values.

    The encoder puts between two values the separator that indent=2 puts
    between a row's keys, and skips the key sort when every row's keys are
    in order already; a flat row cannot hold itself, so it skips the
    circular-reference check too.  Each test iterates at C speed, once per
    table.  With ensure_ascii no encoded string holds a raw newline, so a
    closing brace, that separator and an opening brace occur together only
    between two rows: there each row's braces move to lines of their own.
    """
    if type(rows) is not list or not rows or set(map(type, rows)) != {dict}:
        return None
    keys = set(map(tuple, rows))
    if (not all(keys) or set(map(type, chain.from_iterable(keys))) != {str}
            or not set(map(type, chain.from_iterable(
                map(dict.values, rows)))) <= _SCALARS):
        return None
    encoder = json.JSONEncoder(
        sort_keys=not all(k == tuple(sorted(k)) for k in keys),
        check_circular=False, separators=("," + _ROW_INDENT, ": "))
    try:
        text = encoder.encode(rows)
    except ValueError:      # an int longer than str() converts
        return None
    return "\n    {" + _ROW_INDENT + text[2:-2].replace(
        "}," + _ROW_INDENT + "{", "\n    },\n    {" + _ROW_INDENT) + "\n    }"


def report_json(report) -> str:
    """Canonical serialization: sorted keys, shortest round-trip floats.

    The bytes are json.dumps(report, indent=2, sort_keys=True) plus a
    newline, for any payload.  A report's flat checks rows go through the
    C encoder (indent=2 would send them through the pure-Python one; see
    _checks_text).  The rest of the report, every other payload, and any
    table the encoder refuses stay on json.dumps, so every error is the
    one json.dumps raises.
    """
    rows = _checks_text(report.get("checks") if type(report) is dict else None)
    if rows is None:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    head, mark, tail = json.dumps({**report, "checks": []}, indent=2,
                                  sort_keys=True).partition('\n  "checks": [')
    return "".join((head, mark, rows, "\n  ", tail, "\n"))


def report_summary_table(report) -> str:
    """Human-oriented per-check worst-residual table, with headroom."""
    lines = [f"{'check':34s} {'worst rel':>12s} {'tol':>9s} "
             f"{'headroom':>10s} {'status':>7s}"]
    for key, c in sorted(report["check_summary"].items()):
        status = f"{c['failures']} FAIL" if c["failures"] else "ok"
        lines.append(f"{key:34s} {c['worst_rel']:12.3e} {c['tol']:9.0e} "
                     f"{c['headroom']:10.2e} {status:>7s}")
    s = report["summary"]
    lines.append(f"{s['pass']} passed, {s['fail']} failed, "
                 f"max rel residual {s['max_rel_residual']:.3e}")
    return "\n".join(lines) + "\n"
