"""Mutation matrix: each entry injects one named defect with monkeypatch
and asserts the exact set of check names the suite then fails.

A check that no known defect fails shows nothing; each entry here pins
which checks a defect trips, so a change that blunts one of them, or
that stops a tier from reading the defect, fails this file.
"""

import numpy as np
import pytest

from tidalbundle import connection
from tidalbundle.connection import FieldFrame
from tidalbundle.fields import MetricField
from tidalbundle.jets import Jet, jeinsum
from tidalbundle.scenario import builtin_scenario
from tidalbundle.verify import run_suite


def _killed(scenario_id, points=3, seed=0):
    """Names of the checks that fail on one built-in scenario."""
    report = run_suite([builtin_scenario(scenario_id)], points=points,
                       seed=seed)
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


# A false structural-zero declaration: every metric that declares nothing
# of its own (reissner_nordstrom's among them) declares a flat connection.
# The curvature of N then drops dn1, and dB its dnrm term, though dg is
# not zero there.
FALSE_FLAT = {
    "einstein-trace-full", "maxwell-homogeneous",
    "maxwell-homogeneous-cyclic", "maxwell-inhomogeneous-divergence",
    "maxwell-inhomogeneous-quadratic", "ricci-base-reduction",
    "trace-decomposition"}


def test_false_flat_declaration(monkeypatch):
    assert not _killed("reissner_nordstrom")
    monkeypatch.setattr(MetricField, "zeros", frozenset({"dg"}))
    assert _killed("reissner_nordstrom") == FALSE_FLAT


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
