"""Curvature of the nonlinear connection and the tidal tensors built from it.

The curvature of N is R^i_jk = delta_k N^i_j - delta_j N^i_k; contracting
with the fiber vector gives the tidal tensor E^i_j that drives worldline
deviation.  Second fiber derivatives of E reproduce the curvature blocks
of the affine connection, which is how the Ricci tensor is obtained here:
the full pipeline is evaluated on a fiber-seeded Jet and the Hessian is
read off, with no finite differencing anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .connection import _strong_torsion, field_frame, fiber_parts
from .fields import _riemann
from .jets import Jet, value_of
from .tensors import DIM, PhasePoint


@dataclass(frozen=True)
class TidalPacket:
    """Every curvature-level quantity at a single phase point.

    Derivative blocks follow the slot order of the symbols they hold:
    curvature_block[j,i,k,l] pairs with contraction against y^j y^l to
    reproduce tidal[i,k].
    """

    point: PhasePoint
    alpha: float
    nonlinear_curvature: np.ndarray   # R^i_jk
    tidal: np.ndarray                 # E^i_j
    tidal_angular: np.ndarray         # h_ik E^k_j
    tidal_trace: float                # E^i_i
    gravity_tidal: np.ndarray         # e^i_j, the alpha = 0 tensor
    base_riemann: np.ndarray          # r^i_jkl
    base_ricci: np.ndarray            # r_jk
    curvature_block: np.ndarray       # half fiber Hessian of E
    contortion_block: np.ndarray      # third fiber derivative of B
    d_ricci: np.ndarray               # Ricci of the affine connection
    torsion: np.ndarray               # strong torsion, zero for sprays


def nonlinear_curvature(metric, potential, alpha, p: PhasePoint):
    """Curvature R^i_jk of the nonlinear connection, antisymmetric in jk."""
    frame = field_frame(metric, potential, p.x)
    return fiber_parts(frame, alpha, p.y).R3


def tidal_tensor(metric, potential, alpha, p: PhasePoint):
    """Tidal tensor E^i_j, its angular projection, and the trace."""
    frame = field_frame(metric, potential, p.x)
    parts = fiber_parts(frame, alpha, p.y)
    E = parts.E
    Et = parts.h_low @ E
    return E, Et, float(np.trace(E))


def _hessian_blocks(parts):
    """(curvature block, Ricci) from fiber-jet parts."""
    block = 0.5 * np.einsum("jlik->jikl", parts.E.h)
    ricci = -0.5 * np.einsum("ZYii->ZY", parts.E.h)
    return block, ricci


TraceDecomposition = namedtuple(
    "TraceDecomposition", "lhs rhs gravity_trace divergence quadratic")


def contortion_divergence(frame, parts):
    """Levi-Civita horizontal divergence of the contortion vector.

    Closed form: d_i B^i - n^l_i B^i_l + gamma^i_ai B^a, assembled from
    the base-derivative channel; no adapted-frame machinery involved.
    """
    return float(np.einsum("ii->", parts.dB)
                 - np.einsum("li,il->", parts.n1, parts.B1)
                 + np.einsum("iai,a->", frame.gamma, parts.B))


def trace_decomposition(metric, potential, alpha, p: PhasePoint):
    """Both sides of the tidal-trace split, computed by disjoint paths.

    lhs is E^i_i through the curvature of N; rhs adds the base curvature
    trace, minus twice the Levi-Civita divergence of the contortion
    vector, plus the contortion quadratic B^l_i B^i_l.
    """
    frame = field_frame(metric, potential, p.x)
    y = np.asarray(p.y, dtype=float)
    parts = fiber_parts(frame, alpha, y)
    riem, _ = _riemann(frame.gamma, frame.dgamma)
    return _trace_decomposition(frame, parts,
                                float(np.einsum("iaib,a,b->", riem, y, y)))


def _trace_decomposition(frame, parts, e_trace):
    """trace_decomposition from plain curvature parts and the gravity trace."""
    lhs = float(np.trace(parts.E))
    div = contortion_divergence(frame, parts)
    quad = float(np.einsum("li,il->", parts.B1, parts.B1))
    return TraceDecomposition(lhs, e_trace - 2.0 * div + quad,
                              e_trace, div, quad)


def tidal_packet(metric, potential, alpha, p: PhasePoint,
                 nonspray_perturbation=0.0) -> TidalPacket:
    """Assemble the full curvature picture at one phase point."""
    frame = field_frame(metric, potential, p.x)
    y = np.asarray(p.y, dtype=float)
    jparts = fiber_parts(frame, alpha, Jet.seed(y, DIM))
    block, ricci = _hessian_blocks(jparts)
    R3 = value_of(jparts.R3)
    E = value_of(jparts.E)
    h_low = value_of(jparts.h_low)
    riem, base_ricci = _riemann(frame.gamma, frame.dgamma)
    e = np.einsum("iajb,a,b->ij", riem, y, y)
    torsion = _strong_torsion(jparts.N, y, nonspray_perturbation)
    return TidalPacket(point=p, alpha=float(alpha),
                       nonlinear_curvature=R3, tidal=E,
                       tidal_angular=h_low @ E, tidal_trace=float(np.trace(E)),
                       gravity_tidal=e, base_riemann=riem,
                       base_ricci=base_ricci, curvature_block=block,
                       contortion_block=np.einsum("ijkl->jikl",
                                                  value_of(jparts.B3)),
                       d_ricci=ricci,
                       torsion=torsion)
