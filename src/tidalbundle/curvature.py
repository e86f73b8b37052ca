"""Curvature of the nonlinear connection and the tidal tensors built from it.

The curvature of N is R^i_jk = delta_k N^i_j - delta_j N^i_k; contracting
with the fiber vector gives the tidal tensor E^i_j that drives worldline
deviation.  Second fiber derivatives of E reproduce the curvature blocks
of the affine connection, which is how the Ricci tensor is obtained here:
the full pipeline is evaluated on a fiber-seeded Jet and the Hessian is
read off, with no finite differencing anywhere.

Both operations are reads of one connection.Sample: tidal_packet reads
its fiber-jet tier (and the base curvature on the frame), and
trace_decomposition its plain tier.  TidalPacket.read takes the packet
from a Sample the caller already holds, so one sample can serve it and
ConnectionData.read together (as in `tidal compute`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import Sample, field_frame
from .jets import einsum
from .tensors import PhasePoint


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

    @classmethod
    def read(cls, s: Sample, p: PhasePoint) -> TidalPacket:
        """The curvature of Sample s (at p) from its fiber-jet tier."""
        jp, riem, y = s.jet, s.frame.riemann, s.y
        return cls(point=p, alpha=float(s.alpha), nonlinear_curvature=jp.R3.v,
                   tidal=jp.E.v, tidal_angular=s.angular_E,
                   tidal_trace=float(s.trace_E),
                   gravity_tidal=einsum("iajb,a,b->ij", riem, y, y),
                   base_riemann=riem, base_ricci=s.frame.ricci,
                   curvature_block=s.block,
                   contortion_block=einsum("ijkl->jikl", jp.B3),
                   d_ricci=s.ricci, torsion=s.torsion)


def trace_decomposition(metric, potential, alpha, p: PhasePoint):
    """Both sides of the tidal-trace split, computed by disjoint paths.

    lhs is E^i_i through the curvature of N; rhs adds the base curvature
    trace, minus twice the Levi-Civita divergence of the contortion
    vector, plus the contortion quadratic B^l_i B^i_l.
    """
    return Sample(field_frame(metric, potential, p.x), alpha, p.y).td


def tidal_packet(metric, potential, alpha, p: PhasePoint,
                 nonspray_perturbation=0.0) -> TidalPacket:
    """Assemble the full curvature picture at one phase point."""
    return TidalPacket.read(Sample(field_frame(metric, potential, p.x), alpha,
                                   p.y, nonspray_perturbation), p)
