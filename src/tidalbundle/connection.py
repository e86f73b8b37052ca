"""Spray, nonlinear connection, and affine coefficients on the tangent bundle.

Everything here is assembled from closed-form pieces: the Levi-Civita part
gamma^i_jk(x) y^k and the charge part built from the contortion family

    B^i      = -(alpha/2) ||y|| F^i
    B^i_j    = -(alpha/2) (eps l_j F^i + ||y|| F^i_j)
    B^i_jk   = -(alpha/2) eps (h_jk F^i / ||y|| + l_j F^i_k + l_k F^i_j)

with F^i = F^i_j y^j, l = y/||y||, h the angular metric, and eps the causal
sign.  On spacelike fibers (eps = +1) these reduce to the textbook Randers
expressions; the eps insertions keep every identity exact on timelike
fibers under the positive-norm convention.

Each tensor is built on its first read and kept, so a point computes only
what its caller reads: the field packs and the FieldFrame derive the base
tensors, and FiberParts builds N and its inputs up front and everything
else (B^i_jk, B^i_jkl, G^i_jk, the spray, the curvature of N) on demand.

Index layout of derivative arrays is always derivative-axis leading:
dN[k,i,j] = d(N^i_j)/dx^k.  Fiber quantities accept a Jet for y, so exact
fiber derivatives of anything assembled here come out of the same code
path that produces plain numbers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FrameMismatchError
from .fields import (MetricField, MetricPack, PotentialField, PotentialPack,
                     coords_compatible)
from .jets import Jet, jeinsum, jsqrt, value_of
from .tensors import DIM, PhasePoint, norm_and_sign


@dataclass(frozen=True)
class FieldFrame:
    """Base-point snapshot of the metric and potential with derivatives.

    Fiber-independent; one frame serves every y and alpha at its point.
    """

    x: np.ndarray
    metric_pack: MetricPack
    potential_pack: PotentialPack

    g = property(lambda self: self.metric_pack.g)
    ginv = property(lambda self: self.metric_pack.ginv)
    dg = property(lambda self: self.metric_pack.dg)
    dginv = property(lambda self: self.metric_pack.dginv)
    gamma = property(lambda self: self.metric_pack.gamma)
    dgamma = property(lambda self: self.metric_pack.dgamma)
    F = property(lambda self: self.potential_pack.F)
    dF = property(lambda self: self.potential_pack.dF)

    @cached_property
    def Fmix(self):
        return self.ginv @ self.F

    @cached_property
    def dFmix(self):
        return (np.einsum("kia,aj->kij", self.dginv, self.F)
                + np.einsum("ia,kaj->kij", self.ginv, self.dF))


def field_frame(metric: MetricField, potential: PotentialField, x,
                check=True) -> FieldFrame:
    if not coords_compatible(metric, potential):
        raise FrameMismatchError(
            f"{metric.name} uses {metric.coords} coordinates but "
            f"{potential.name} expects {potential.coords}")
    x = np.asarray(x, dtype=float)
    return FieldFrame(x, metric.pack(x, check=check),
                      potential.pack(x, check=check))


def phase_point(metric: MetricField, x, y) -> PhasePoint:
    return PhasePoint.create(metric.pack(np.asarray(x, dtype=float)).g, x, y)


class FiberParts:
    """Connection data at one fiber; g, ginv, gamma, F and y may be Jets.

    N and its inputs are built here; the rest on first read.  The curvature
    channel (dB, dB1, R3, E) differentiates the base dependence in closed
    form, so it reads the plain frame arrays whether y is plain or a
    fiber-seeded Jet.
    """

    def __init__(self, frame: FieldFrame, g, ginv, gamma, F, alpha, y, eps, nrm):
        self.frame, self.g, self.gamma = frame, g, gamma
        self.alpha, self.y, self.eps, self.nrm = alpha, y, eps, nrm
        self.l_up = y / nrm
        self.l_low = jeinsum("ij,j->i", g, self.l_up)
        self.Fmix = jeinsum("ia,aj->ij", ginv, F)
        self.F_up = jeinsum("ij,j->i", self.Fmix, y)
        half = -0.5 * alpha
        self.B = half * (nrm * self.F_up)
        self.B1 = half * (eps * jeinsum("j,i->ij", self.l_low, self.F_up)
                          + nrm * self.Fmix)
        self.n1 = jeinsum("ijk,k->ij", gamma, y)
        self.N = self.n1 + self.B1

    @cached_property
    def h_low(self):
        return self.g - self.eps * jeinsum("i,j->ij", self.l_low, self.l_low)

    @cached_property
    def B2(self):
        l_low, Fmix = self.l_low, self.Fmix
        return (-0.5 * self.alpha * self.eps) * (
            jeinsum("jk,i->ijk", self.h_low, self.F_up) / self.nrm
            + jeinsum("j,ik->ijk", l_low, Fmix)
            + jeinsum("k,ij->ijk", l_low, Fmix))

    @cached_property
    def Gaff(self):
        return self.gamma + self.B2

    @cached_property
    def G(self):
        return 0.5 * jeinsum("ij,j->i", self.N, self.y)

    @cached_property
    def B3(self):
        """B^i_jkl, the third fiber derivative of B."""
        eps, nrm, h_low, l_low = self.eps, self.nrm, self.h_low, self.l_low
        Fmix, F_up = self.Fmix, self.F_up
        half = -0.5 * self.alpha
        hl = (jeinsum("jl,k->jkl", h_low, l_low)
              + jeinsum("j,kl->jkl", l_low, h_low)
              + jeinsum("l,jk->jkl", l_low, h_low))
        return (half * eps) * (jeinsum("jk,il->ijkl", h_low, Fmix)
                               + jeinsum("jl,ik->ijkl", h_low, Fmix)
                               + jeinsum("kl,ij->ijkl", h_low, Fmix)) / nrm \
            - (half * eps * eps) * jeinsum("jkl,i->ijkl", hl, F_up) / (nrm * nrm)

    # ---- curvature channel: base derivatives and the curvature of N ----

    @cached_property
    def dnrm(self):
        y = self.y
        dq = jeinsum("kab,ab->k", self.frame.dg, jeinsum("a,b->ab", y, y))
        return (self.eps / 2.0) * dq / self.nrm

    @cached_property
    def dF_up(self):
        return jeinsum("kij,j->ki", self.frame.dFmix, self.y)

    @cached_property
    def dB(self):
        return (-0.5 * self.alpha) * (jeinsum("k,i->ki", self.dnrm, self.F_up)
                                      + self.nrm * self.dF_up)

    @cached_property
    def dB1(self):
        frame, y, eps, nrm = self.frame, self.y, self.eps, self.nrm
        dnrm = self.dnrm
        ylow = jeinsum("ja,a->j", frame.g, y)
        dylow = jeinsum("kja,a->kj", frame.dg, y)
        dl_low = dylow / nrm - jeinsum("k,j->kj", dnrm, ylow) / (nrm * nrm)
        return (-0.5 * self.alpha) * (
            eps * (jeinsum("kj,i->kij", dl_low, self.F_up)
                   + jeinsum("j,ki->kij", self.l_low, self.dF_up))
            + jeinsum("k,ij->kij", dnrm, self.Fmix)
            + nrm * frame.dFmix)

    @cached_property
    def R3(self):
        dN = jeinsum("kijm,m->kij", self.frame.dgamma, self.y) + self.dB1
        N, Gaff = self.N, self.Gaff
        return (jeinsum("kij->ijk", dN) - jeinsum("jik->ijk", dN)
                - jeinsum("lk,ijl->ijk", N, Gaff)
                + jeinsum("lj,ikl->ijk", N, Gaff))

    @cached_property
    def E(self):
        return jeinsum("ijk,k->ij", self.R3, self.y)


def fiber_parts(frame: FieldFrame, alpha, y, check=True) -> FiberParts:
    """The connection at one fiber; each part is built when first read.

    y may be a plain 4-vector or a Jet seeded in fiber directions; in the
    latter case every output carries exact fiber derivatives.

    check=False disables the near-null rejection.  Adaptive integrators
    evaluate trial stages at states the solution never visits; those must
    produce large finite values (which the step control then rejects) rather
    than raise.
    """
    nrm_v, eps = norm_and_sign(frame.g, value_of(y),
                               tol=None if check else 0.0)
    if isinstance(y, Jet):
        q = jeinsum("i,i->", jeinsum("ij,j->i", frame.g, y), y)
        nrm = jsqrt(eps * q)
    else:
        y = np.asarray(y, dtype=float)
        nrm = nrm_v
    return FiberParts(frame, frame.g, frame.ginv, frame.gamma, frame.F,
                      alpha, y, eps, nrm)


# ---- public per-point operations --------------------------------------

ContortionFamily = namedtuple("ContortionFamily", "vector jacobian hessian third")


@dataclass(frozen=True)
class ConnectionData:
    """Everything the connection knows at a single phase point."""

    point: PhasePoint
    alpha: float
    christoffel: np.ndarray       # gamma^i_jk
    faraday_mixed: np.ndarray     # F^i_j
    faraday_fiber: np.ndarray     # F^i_j y^j
    contortion: ContortionFamily  # B^i and its fiber derivatives
    spray: np.ndarray             # G^i
    nonlinear: np.ndarray         # N^i_j
    affine: np.ndarray            # G^i_jk


def _point_parts(metric, potential, alpha, p: PhasePoint):
    frame = field_frame(metric, potential, p.x)
    return frame, fiber_parts(frame, alpha, p.y)


def connection_data(metric, potential, alpha, p: PhasePoint) -> ConnectionData:
    frame, parts = _point_parts(metric, potential, alpha, p)
    fam = ContortionFamily(parts.B, parts.B1, parts.B2, parts.B3)
    return ConnectionData(point=p, alpha=float(alpha),
                          christoffel=frame.gamma, faraday_mixed=parts.Fmix,
                          faraday_fiber=parts.F_up, contortion=fam,
                          spray=parts.G, nonlinear=parts.N, affine=parts.Gaff)


def b_family(metric, potential, alpha, p: PhasePoint) -> ContortionFamily:
    """Contortion vector B^i and its first three fiber derivatives."""
    _, parts = _point_parts(metric, potential, alpha, p)
    return ContortionFamily(parts.B, parts.B1, parts.B2, parts.B3)


def strong_torsion(metric, potential, alpha, p: PhasePoint, perturbation=0.0):
    """Homogeneity defect y^k dN^i_k/dy^j - N^i_j; zero for spray connections.

    perturbation adds a constant to every N^i_j, turning the connection
    into a non-spray one with torsion exactly -perturbation (the negative
    control used by the verification suite).
    """
    frame = field_frame(metric, potential, p.x)
    yj = Jet.seed(np.asarray(p.y, dtype=float), DIM)
    return _strong_torsion(fiber_parts(frame, alpha, yj).N, p.y, perturbation)


def _strong_torsion(N, y, perturbation):
    """strong_torsion from the fiber-jet N of fiber_parts at y."""
    return np.einsum("jik,k->ij", N.d, y) - (N.v + perturbation)


# ---- phase jets and derivatives in the adapted frame -------------------

X_DIRS = slice(0, DIM)
Y_DIRS = slice(DIM, 2 * DIM)


def phase_context(frame: FieldFrame, alpha, y):
    """Connection data as order-1 jets in all eight phase directions.

    Directions 0..3 are base, 4..7 fiber.  The jets are order 1: the
    adapted derivatives read first derivatives only, and those are exact.
    """
    m = 2 * DIM
    eye = np.eye(DIM)
    g = Jet.from_pack(frame.g, frame.dg, m)
    ginv = Jet.from_pack(frame.ginv, frame.dginv, m)
    gamma = Jet.from_pack(frame.gamma, frame.dgamma, m)
    F = Jet.from_pack(frame.F, frame.dF, m)
    yj = Jet.from_pack(np.asarray(y, dtype=float), eye, m, start=DIM)
    nrm_v, eps = norm_and_sign(frame.g, y)
    q = jeinsum("i,i->", jeinsum("ij,j->i", g, yj), yj)
    nrm = jsqrt(eps * q)
    parts = FiberParts(frame, g, ginv, gamma, F, alpha, yj, eps, nrm)
    parts.x = Jet.from_pack(frame.x, eye, m)
    parts.q = q
    return parts


@dataclass(frozen=True)
class PhaseFieldSpec:
    """A tensor field on the tangent bundle given by its jet components.

    variance: one character per slot, 'u' (contravariant) or 'd'
    (covariant); '' for scalars.  build maps a phase_context to a Jet of
    coordinate components.
    """

    variance: str
    build: object


unit_direction_low = PhaseFieldSpec("d", lambda ctx: ctx.l_low)
fiber_velocity = PhaseFieldSpec("u", lambda ctx: ctx.y)
fiber_square = PhaseFieldSpec("", lambda ctx: ctx.q)
contortion_vector = PhaseFieldSpec("u", lambda ctx: ctx.B)


def _adapted_all(T: Jet, N_value):
    """delta_k T for all k, derivative axis leading."""
    dx = T.d[X_DIRS]
    dy = T.d[Y_DIRS]
    return dx - np.einsum("lk,l...->k...", N_value, dy)


def adapted_derivative(metric, potential, alpha, p: PhasePoint, field, k):
    """delta_k of a phase field: base partial corrected by -N^l_k d/dy^l."""
    frame = field_frame(metric, potential, p.x)
    ctx = phase_context(frame, alpha, p.y)
    T = field.build(ctx)
    return _adapted_all(T, value_of(ctx.N))[k]


def d_covariant_derivative(metric, potential, alpha, p: PhasePoint, field,
                           reference="full"):
    """Covariant derivative along the adapted basis, derivative axis last.

    For a field with components T^i..._j... the result adds, per slot,
    +G^i_ak T^a or -G^a_jk T_a on top of delta_k.  reference="base" uses
    the alpha = 0 coefficients (Levi-Civita transport) instead.
    """
    frame = field_frame(metric, potential, p.x)
    return _d_covariant(phase_context(frame, alpha, p.y), field, reference)


def _d_covariant(ctx, field, reference="full"):
    """d_covariant_derivative from a prebuilt phase_context."""
    T = field.build(ctx)
    if reference == "base":
        N_value = value_of(ctx.n1)
        coeff = ctx.frame.gamma
    else:
        N_value = value_of(ctx.N)
        coeff = value_of(ctx.Gaff)
    out = np.moveaxis(_adapted_all(T, N_value), 0, -1)
    V = T.v
    for slot, ch in enumerate(field.variance):
        if ch == "u":
            term = np.tensordot(coeff, V, axes=([1], [slot]))
        else:
            term = -np.tensordot(coeff, V, axes=([0], [slot]))
        # tensordot leaves (slot axis, k) leading; restore slot, push k last
        term = np.moveaxis(term, 1, -1)
        term = np.moveaxis(term, 0, slot)
        out = out + term
    return out
