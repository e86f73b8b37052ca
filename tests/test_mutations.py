"""Mutation matrix: each entry injects one named defect with monkeypatch
and asserts the exact set of check names the suite then fails.

A check that no known defect fails shows nothing; each entry here pins
which checks a defect trips, so a change that blunts one of them, or
that stops a tier from reading the defect, fails this file.
"""

import copy

import numpy as np
import pytest
from conftest import KILLING_CHARGES, charge_drift

from tidalbundle import connection
from tidalbundle.connection import FiberParts, FieldFrame, Sample
from tidalbundle.fields import MetricPack, PotentialPack
from tidalbundle.jets import Jet, jeinsum
from tidalbundle.scenario import builtin_scenario, scenario_from_dict
from tidalbundle.verify import TOLERANCES, run_suite


def _killed(scenario, points=3, seed=0):
    """Names of the checks that fail on one scenario (or built-in id)."""
    if isinstance(scenario, str):
        scenario = builtin_scenario(scenario)
    report = run_suite([scenario], points=points, seed=seed)
    return {name for name, s in report["check_summary"].items()
            if s["failures"]}


# F^i_j = g^ia F_aj transposed.  Every fiber tier reads the frame's copy,
# so the defect reaches the plain, fiber-jet and phase tiers alike.  A
# pure radial electric field in a diagonal chart (flat_coulomb) has a
# symmetric F^i_j, so there the transpose changes nothing and is no mutant.
TRANSPOSED_FMIX = {
    "reissner_nordstrom": {
        "einstein-trace-full", "maxwell-homogeneous",
        "maxwell-homogeneous-cyclic", "maxwell-inhomogeneous-divergence",
        "maxwell-inhomogeneous-quadratic", "maxwell-variants-agree",
        "trace-decomposition", "unit-direction-transport"},
    "flat_uniform_b": {"unit-direction-transport"},
}


@pytest.mark.parametrize("scenario_id", sorted(TRANSPOSED_FMIX))
def test_transposed_mixed_field_strength(monkeypatch, scenario_id):
    assert not _killed(scenario_id)
    monkeypatch.setattr(FieldFrame, "Fmix", property(
        lambda self: np.einsum("ia,aj->ji", self.ginv, self.F)))
    assert _killed(scenario_id) == TRANSPOSED_FMIX[scenario_id]


# A false zero report: every metric pack that reports nothing of its own
# (the point-dependent ones, reissner_nordstrom's among them) reports a
# flat connection.  The curvature of N then drops dn1, and dB its dnrm
# term, though dg is not zero there.
FALSE_FLAT = {
    "einstein-trace-full", "maxwell-homogeneous",
    "maxwell-homogeneous-cyclic", "maxwell-inhomogeneous-divergence",
    "maxwell-inhomogeneous-quadratic", "ricci-base-reduction",
    "trace-decomposition"}


def test_false_flat_declaration(monkeypatch):
    assert not _killed("reissner_nordstrom")
    monkeypatch.setattr(MetricPack, "zeros", frozenset({"dg"}))
    assert _killed("reissner_nordstrom") == FALSE_FLAT


# A false zero report of the field: every potential pack that reports
# nothing of its own (reissner_nordstrom's coulomb among them) reports F
# zero.  Every fiber tier then builds the connection of no field, the
# Levi-Civita spray, consistently, so the identities among the tiers
# hold.  Only the checks that also read F from the pack itself fail: the
# transport of l against (alpha/2) F, and the full Einstein trace, whose
# right side holds the invariant F_ab F^ab.
FALSE_FIELD_FREE = {"einstein-trace-full", "unit-direction-transport"}


def test_false_field_free_declaration(monkeypatch):
    assert not _killed("reissner_nordstrom")
    monkeypatch.setattr(PotentialPack, "zeros", frozenset({"F"}))
    assert _killed("reissner_nordstrom") == FALSE_FIELD_FREE


# Jet-kernel defects, each a wrapper around the connection's jeinsum that
# reads only a Jet's v, d and h.  Dropping the second operand's first
# derivative (from its linear and its cross term) breaks every fiber
# derivative that reaches y through a right-hand operand; dropping the
# two-jet cross term of the Hessian leaves the first derivatives exact
# and breaks only the fiber Hessians (the curvature blocks and the Ricci
# tensor read from E).
def _second_first_derivative_dropped(spec, *ops):
    if len(ops) == 2 and isinstance(ops[1], Jet):
        b = ops[1]
        ops = (ops[0], Jet(b.v, np.zeros_like(b.d), b.h))
    return jeinsum(spec, *ops)


def _hessian_cross_term_dropped(spec, *ops):
    if len(ops) != 2 or not all(isinstance(x, Jet) for x in ops) \
            or ops[0].h is None:
        return jeinsum(spec, *ops)
    a, b = ops
    return (jeinsum(spec, a, b.v) + jeinsum(spec, a.v, b)
            - jeinsum(spec, a.v, b.v))


JET_KERNEL = {
    "second-first-derivative-dropped": (_second_first_derivative_dropped, {
        "reissner_nordstrom": {
            "einstein-trace-full", "maxwell-inhomogeneous-divergence",
            "maxwell-variants-agree", "reconstruction",
            "ricci-base-reduction", "spray-coherence", "strong-torsion",
            "unit-direction-transport"},
        "flat_uniform_b": {"reconstruction", "spray-coherence",
                           "strong-torsion", "unit-direction-transport"}}),
    "hessian-cross-term-dropped": (_hessian_cross_term_dropped, {
        "reissner_nordstrom": {"reconstruction", "ricci-base-reduction"},
        "flat_uniform_b": {"reconstruction"}}),
}


@pytest.mark.parametrize("scenario_id", ["reissner_nordstrom",
                                         "flat_uniform_b"])
@pytest.mark.parametrize("mutant", sorted(JET_KERNEL))
def test_jet_kernel_defects(monkeypatch, mutant, scenario_id):
    wrapper, killed = JET_KERNEL[mutant]
    assert not _killed(scenario_id)
    monkeypatch.setattr(connection, "jeinsum", wrapper)
    assert _killed(scenario_id) == killed[scenario_id]


# The curvature of N with the sign of its second base-derivative term,
# d_j N^i_k, flipped.  On a flat frame with a uniform field (flat_uniform_b)
# R3 builds no dN, so the defect reaches nothing there.
def _dN_term_flipped(spec, *ops):
    out = jeinsum(spec, *ops)
    return -out if spec == "jik->ijk" else out


R3_DN_SIGN = {
    "angular-trace", "curvature-antisymmetry", "einstein-trace-full",
    "maxwell-homogeneous", "maxwell-homogeneous-cyclic",
    "maxwell-inhomogeneous-divergence", "maxwell-inhomogeneous-quadratic",
    "ricci-base-reduction", "tidal-orthogonality", "trace-decomposition"}


@pytest.mark.parametrize("scenario_id", ["reissner_nordstrom",
                                         "schwarzschild_vacuum"])
def test_curvature_dN_term_sign_flipped(monkeypatch, scenario_id):
    assert not _killed(scenario_id)
    monkeypatch.setattr(connection, "jeinsum", _dN_term_flipped)
    assert _killed(scenario_id) == R3_DN_SIGN


# The angular metric with the wrong causal sign, h = g + eps l l.  Without
# a field (schwarzschild_vacuum) E is orthogonal to l on both sides and the
# contortion vanishes, so the sign reaches nothing there.
ANGULAR_SIGN = {
    "reissner_nordstrom": {
        "angular-projection", "einstein-trace-full", "homogeneity-ladder",
        "maxwell-homogeneous", "maxwell-homogeneous-cyclic",
        "maxwell-inhomogeneous-divergence",
        "maxwell-inhomogeneous-quadratic", "trace-decomposition"},
    "flat_uniform_b": {
        "angular-projection", "homogeneity-ladder", "maxwell-homogeneous",
        "maxwell-homogeneous-cyclic", "maxwell-inhomogeneous-divergence",
        "maxwell-inhomogeneous-quadratic", "trace-decomposition"},
}


@pytest.mark.parametrize("scenario_id", sorted(ANGULAR_SIGN))
def test_angular_metric_wrong_causal_sign(monkeypatch, scenario_id):
    assert not _killed(scenario_id)
    monkeypatch.setattr(FiberParts, "h_low", property(
        lambda self: self.g + self.eps * jeinsum("i,j->ij", self.l_low,
                                                 self.l_low)))
    assert _killed(scenario_id) == ANGULAR_SIGN[scenario_id]


# A coulomb charge of 0.4 under the Q = 0.5 Reissner-Nordstrom metric: the
# field solves Maxwell's equations there, but does not source the metric.
MISMATCHED_CHARGE = {"einstein-trace", "einstein-trace-full"}


def test_metric_and_potential_with_mismatched_charge():
    data = copy.deepcopy(builtin_scenario("reissner_nordstrom").raw)
    data["potential"]["params"]["Q"] = 0.4
    assert data["einstein_consistent"]
    assert _killed(scenario_from_dict(data)) == MISMATCHED_CHARGE


# The Ricci tensor traced over the upper slot and a fiber-derivative slot
# of the Hessian of E, in place of its two tensor slots.  ricci-hessian,
# the trace of the curvature block, is the check that reads it at every
# coupling; ricci-base-reduction reads it at alpha = 0 only.
RICCI_WRONG_TRACE = {
    "reissner_nordstrom": {"ricci-base-reduction", "ricci-hessian"},
    "flat_uniform_b": {"ricci-hessian"},
}


@pytest.mark.parametrize("scenario_id", sorted(RICCI_WRONG_TRACE))
def test_ricci_traced_over_wrong_slots(monkeypatch, scenario_id):
    assert not _killed(scenario_id)
    monkeypatch.setattr(Sample, "ricci", property(
        lambda self: -0.5 * np.einsum("iY...Zi->...ZY", self.jet.E.h)))
    assert _killed(scenario_id) == RICCI_WRONG_TRACE[scenario_id]


# The Lorentz force with the wrong sign: the coupling factor that scales
# each bracket of the contortion family negated, so every tier runs at
# -alpha.  The identities hold at either sign, and only the transport of
# the unit direction, which reads alpha itself, fails in the suite.  Each
# Killing charge that A enters drifts past its bound: the mutant's
# trajectory kill, which no norm, radius or period check gives.  The
# others, d/dphi on reissner_nordstrom (A_phi = 0) and the uncharged
# Schwarzschild worldlines, hold at either sign and are not listed.
LORENTZ_SIGN = {"unit-direction-transport"}
LORENTZ_SIGN_CHARGES = (("cyclotron", 2), ("flat_coulomb", 0),
                        ("flat_uniform_b", 2), ("reissner_nordstrom", 0))


def test_lorentz_sign_flipped(monkeypatch):
    lead = connection._lead
    monkeypatch.setattr(connection, "_lead",
                        lambda factor, rank: -lead(factor, rank))
    assert _killed("reissner_nordstrom") == LORENTZ_SIGN
    for scenario_id, k in LORENTZ_SIGN_CHARGES:
        t_span, bound = KILLING_CHARGES[scenario_id, k]
        assert charge_drift(scenario_id, k, t_span) > bound, scenario_id


def test_every_check_has_a_killer():
    killers = set().union(
        *TRANSPOSED_FMIX.values(), FALSE_FLAT,
        *(killed for _, sets in JET_KERNEL.values()
          for killed in sets.values()),
        R3_DN_SIGN, *ANGULAR_SIGN.values(), MISMATCHED_CHARGE,
        *RICCI_WRONG_TRACE.values(), LORENTZ_SIGN)
    assert killers == set(TOLERANCES)
