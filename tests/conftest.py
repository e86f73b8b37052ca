"""Shared finite-difference oracles, a counter of what a call builds, and
the hypothesis profile every property test runs under.

Expected values in the test suite come from one of three places: hand
calculation (noted where it happens), an independent central-difference
oracle built here, or an identity that must hold to machine precision.
Nothing is copied from the implementation under test.
"""

import sys
from collections import Counter

import numpy as np
from hypothesis import settings

from tidalbundle import connection
from tidalbundle.jets import Jet

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
