"""Shared finite-difference oracles, a jet built from its parts, the
catalog potentials and a conserved charge written by hand, counters of
what a call builds and contracts, and the hypothesis profile every
property test runs under.

Expected values in the test suite come from one of three places: hand
calculation (noted where it happens), an independent central-difference
oracle built here, or an identity that must hold to machine precision.
Nothing is copied from the implementation under test.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
from hypothesis import settings

from tidalbundle import connection
from tidalbundle.dynamics import integrate_worldline
from tidalbundle.jets import Jet
from tidalbundle.scenario import builtin_scenario

# Property tests draw their examples from a fixed seed and keep no
# example database, so every run of the suite gives the same verdict;
# they stay small enough to run in it.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None, max_examples=100)
settings.load_profile("tier1")


def fd_gradient(fn, x, h=1e-6):
    """Central-difference gradient with the derivative axis leading."""
    x = np.asarray(x, dtype=float)
    rows = []
    for a in range(x.size):
        dx = np.zeros_like(x)
        dx[a] = h
        rows.append((np.asarray(fn(x + dx), dtype=float)
                     - np.asarray(fn(x - dx), dtype=float)) / (2.0 * h))
    return np.array(rows)


def fd_hessian(fn, x, h=1e-4):
    """Nested central differences; accurate to about h**2."""
    return fd_gradient(lambda z: fd_gradient(fn, z, h), x, h)


def make_jet(v, d, h=None):
    """A Jet of value v, first derivatives d, shape (m,)+shape(v), and, at
    order 2, second derivatives h, shape (m, m)+shape(v), stacked into
    one array in the layout of the jets module."""
    v = np.asarray(v, dtype=float)
    m = len(d)
    parts = [v[None], np.reshape(d, (m,) + v.shape)]
    if h is not None:
        parts.append(np.reshape(h, (m * m,) + v.shape))
    return Jet._of(np.concatenate(parts, dtype=float), m)


def potential_by_hand(name, params, x):
    """A_i of a catalog potential, written out independently of the
    catalog code (its packs hold no A)."""
    A = np.zeros(4)
    if name == "coulomb":        # A_t = Q/r
        A[0] = params["Q"] / x[1]
    elif name == "uniform_e":    # A_t = -E x^axis
        A[0] = -params["E"] * x["txyz".index(params["axis"])]
    elif name == "pure_gauge":   # A = c d(xy)
        A[1], A[2] = params["c"] * x[2], params["c"] * x[1]
    elif name == "uniform_b":    # B along z: A_y = B x, and cyclically
        i, j = {"z": (2, 1), "x": (3, 2), "y": (1, 3)}[params["axis"]]
        A[i] = params["B"] * x[j]
    return A


# (built-in, k of the Killing vector d/dx^k) -> (t_span or None for the
# scenario's own, bound on the charge drift).  Each bound is ten times the
# drift of the clean engine at the scenario's own rtol, rounded up:
# - cyclotron, p_y = y^y + alpha B x at rtol 1e-12: 4.2e-13;
# - flat_uniform_b, the same p_y at the default rtol 1e-10: 1.2e-10;
# - flat_coulomb, -E = -y^t + alpha Q/r: 3.0e-11;
# - reissner_nordstrom, -E = g_tt y^t + alpha Q/r: 8.7e-10, and
#   L = g_phiphi y^phi: 2.4e-9;
# - schwarzschild_vacuum, -E = g_tt y^t: 3.3e-10;
# - schwarzschild_circular at rtol 1e-12, -E: 1.1e-16, and L: 8.9e-16.
# The radial infalls of reissner_nordstrom and schwarzschild_vacuum run on
# tau in [0, 20], which keeps them off the horizon.  d/dphi on the radial
# worldlines of flat_coulomb and schwarzschild_vacuum is left out: y^phi
# stays exactly 0 there, so its charge gives the oracle nothing to see.
KILLING_CHARGES = {
    ("cyclotron", 2): (None, 5e-12),
    ("flat_coulomb", 0): (None, 4e-10),
    ("flat_uniform_b", 2): (None, 2e-9),
    ("reissner_nordstrom", 0): ((0.0, 20.0), 1e-8),
    ("reissner_nordstrom", 3): ((0.0, 20.0), 3e-8),
    ("schwarzschild_circular", 0): (None, 2e-15),
    ("schwarzschild_circular", 3): (None, 9e-15),
    ("schwarzschild_vacuum", 0): ((0.0, 20.0), 4e-9),
}


def charge_drift(scenario_id, k, t_span=None):
    """Largest change of the Killing charge xi_a (y^a + alpha A^a) of
    xi = d/dx^k, that is g_ka y^a + alpha A_k, over the samples of the
    built-in's worldline, on its own t_span or on t_span.

    xi must be a Killing vector of the metric that leaves A invariant;
    the charge is then conserved along a charged worldline (Carter, Phys.
    Rev. 174, 1559 (1968)).  A comes from potential_by_hand, so the
    oracle reads no connection code.
    """
    sc = builtin_scenario(scenario_id)
    cfg = sc.integrator if t_span is None else dataclasses.replace(
        sc.integrator, t_span=t_span)
    traj = integrate_worldline(sc.metric, sc.potential, sc.alpha,
                               sc.initial_point, cfg)
    assert not traj.truncated
    A = sc.potential
    charge = [sc.metric.pack(x).g[k] @ y
              + sc.alpha * potential_by_hand(A.name, A.params, x)[k]
              for x, y in zip(traj.x, traj.y)]
    return float(np.max(np.abs(np.asarray(charge) - charge[0])))


def count_builds(monkeypatch):
    """Record every frame and tier built, wherever a module binds a builder.

    Returns (frames, tiers, couplings): the base point of each field_frame
    call, a Counter of plain and jet fiber_parts and phase_context calls,
    and the (tier, coupling argument) of each of those calls in order.
    """
    frames, tiers, couplings = [], Counter(), []
    field_frame, fiber_parts, phase_context = (
        connection.field_frame, connection.fiber_parts,
        connection.phase_context)

    def counted_frame(*args, **kwargs):
        frames.append(np.asarray(args[2]).tobytes())
        return field_frame(*args, **kwargs)

    def counted_parts(frame, alpha, y, **kwargs):
        kind = "jet" if isinstance(y, Jet) else "plain"
        tiers[kind] += 1
        couplings.append((kind, alpha))
        return fiber_parts(frame, alpha, y, **kwargs)

    def counted_phase(frame, alpha, y):
        tiers["phase"] += 1
        couplings.append(("phase", alpha))
        return phase_context(frame, alpha, y)

    wrappers = {"field_frame": (field_frame, counted_frame),
                "fiber_parts": (fiber_parts, counted_parts),
                "phase_context": (phase_context, counted_phase)}
    for name, module in list(sys.modules.items()):
        if not name.startswith("tidalbundle."):
            continue
        for attr, (original, wrapper) in wrappers.items():
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, wrapper)
    return frames, tiers, couplings


def count_contractions(monkeypatch):
    """Record every contraction the connection module runs.

    Returns a Counter of the specs its einsum and jeinsum are called
    with, and of the calls to its _b3_brackets under that name.
    """
    specs = Counter()
    einsum, jeinsum, b3_brackets = (connection.einsum, connection.jeinsum,
                                    connection._b3_brackets)

    def counted_einsum(spec, *ops):
        specs[spec] += 1
        return einsum(spec, *ops)

    def counted_jeinsum(spec, *ops):
        specs[spec] += 1
        return jeinsum(spec, *ops)

    def counted_b3_brackets(*args):
        specs["_b3_brackets"] += 1
        return b3_brackets(*args)

    monkeypatch.setattr(connection, "einsum", counted_einsum)
    monkeypatch.setattr(connection, "jeinsum", counted_jeinsum)
    monkeypatch.setattr(connection, "_b3_brackets", counted_b3_brackets)
    return specs
