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
tensors, and FiberParts derives the connection at one fiber.  The mixed
field strength F^i_j = g^ia F_aj is the frame's, built once per point:
every fiber tier reads that one array (the phase tier lifts it with its
base derivatives).  Since alpha enters only as the scalar factor above,
FiberParts builds the alpha-free data once and scales it by the
coupling.  Where the potential's pack reports F zero (a field-free
frame), no contraction reads F: F^i_j, its derivative and the
alpha-free data built from them are zero arrays (see FiberParts), and
the spray is the Levi-Civita geodesic spray.  alpha may be a 1-D
array, a batch of couplings evaluated in one pass; a scalar coupling is
a batch with no axis, and both run the same code (see FiberParts).  The
per-point public functions take a scalar coupling.
A Sample is one phase point at one coupling (or one batch of them): it
holds three FiberParts tiers (plain, fiber jet, phase jet), each built on
first read, and the reads that several callers share.  Every per-point
function here and in curvature, and the verification bench, is a read of
one Sample.

Index layout of derivative arrays is always derivative-axis leading:
dN[k,i,j] = d(N^i_j)/dx^k.  Fiber quantities accept a Jet for y, so exact
fiber derivatives of anything assembled here come out of the same code
path that produces plain numbers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatchError
from .fields import (MetricField, MetricPack, PotentialField, PotentialPack,
                     cached_property, coords_compatible)
from .jets import Jet, einsum, jeinsum, jsqrt, value_of
from .tensors import DIM, PhasePoint, norm_and_sign


@dataclass(frozen=True)
class FieldFrame:
    """Base-point snapshot of the metric and potential with derivatives.

    Fiber-independent; one frame serves every y and alpha at its point.
    Three facts read the zeros its packs report (see fields): flat (dg =
    0, so gamma and dgamma vanish), uniform (dF = 0) and field_free (F =
    0).  Each is one membership test on one pack, so a frame built
    directly from packs reads what field_frame's does.  On a field-free
    frame Fmix and dFmix are zero arrays, built with no contraction: F
    vanishes everywhere, so dF does too.
    """

    metric_pack: MetricPack
    potential_pack: PotentialPack

    flat = property(lambda self: "dg" in self.metric_pack.zeros)
    uniform = property(lambda self: "d2A" in self.potential_pack.zeros)
    field_free = property(lambda self: "F" in self.potential_pack.zeros)

    g = property(lambda self: self.metric_pack.g)
    ginv = property(lambda self: self.metric_pack.ginv)
    dg = property(lambda self: self.metric_pack.dg)
    dginv = property(lambda self: self.metric_pack.dginv)
    gamma = property(lambda self: self.metric_pack.gamma)
    dgamma = property(lambda self: self.metric_pack.dgamma)
    riemann = property(lambda self: self.metric_pack.riemann)
    ricci = property(lambda self: self.metric_pack.ricci)
    F = property(lambda self: self.potential_pack.F)
    dF = property(lambda self: self.potential_pack.dF)

    @cached_property
    def Fmix(self):
        """F^i_j = g^ia F_aj, the one copy every fiber tier reads."""
        if self.field_free:
            return np.zeros((DIM, DIM))
        return einsum("ia,aj->ij", self.ginv, self.F)

    @cached_property
    def dFmix(self):
        if self.field_free:
            return np.zeros((DIM, DIM, DIM))
        return (einsum("kia,aj->kij", self.dginv, self.F)
                + einsum("ia,kaj->kij", self.ginv, self.dF))


def field_frame(metric: MetricField, potential: PotentialField, x,
                check=True) -> FieldFrame:
    if not coords_compatible(metric, potential):
        raise FrameMismatchError(
            f"{metric.name} uses {metric.coords} coordinates but "
            f"{potential.name} expects {potential.coords}")
    return FieldFrame(metric.pack(x, check=check),
                      potential.pack(x, check=check))


def phase_point(metric: MetricField, x, y) -> PhasePoint:
    return PhasePoint.create(metric.pack(np.asarray(x, dtype=float)).g, x, y)


class FiberParts:
    """Connection data at one fiber and one coupling, or a batch of them.

    The coupling enters the charged spray only as a scalar factor on the
    contortion family, so ||y||, l, h, F^i, gamma^i_jk y^k, the base
    derivatives of ||y||, F^i and gamma y, and the alpha-free brackets
    b, b1, b2, db, db1 of B, B^i_j, B^i_jk, dB and dB^i_j are built once,
    whatever alpha is.  Each coupling-dependent tensor is its coupling
    factor (-alpha/2, or -alpha eps/2) times one of those brackets, and N,
    G^i_jk, the spray, the curvature of N and E are assembled from them.
    B^i_jkl is built from values alone on every tier (see B3).  Fmix is
    F^i_j, the frame's own array (a Jet lifted from it on the phase
    tier); g, gamma, Fmix and y may be Jets.  The eager
    attributes (N, B^i_j and what they read) are the ones every reader,
    the worldline right-hand side first, reads; the rest is built on first
    read.  The curvature channel (dB, dB1, R3, E) differentiates the base
    dependence in closed form, so it reads the plain frame arrays whether
    y is plain or a fiber-seeded Jet, and builds no term the frame's
    packs report zero (flat, uniform, field_free; see R3).

    On a field-free frame no contraction reads F: F^i and the alpha-free
    brackets b, b2, db, db1 and the two of B^i_jkl are exact +0.0 arrays
    (zero stacks of the tier's length on a jet tier), as the full build's
    are, since einsum sums onto a zeroed output.  b1 keeps its one
    product that sets a signed zero (see __init__).  The coupling factors
    and the sums with n1 and gamma still run and set each signed zero of
    the outputs, so every output keeps its bits.

    alpha may be a 1-D array of couplings.  Then every coupling-dependent
    tensor carries a coupling axis that follows the jet axes and leads
    its tensor slots (B1.v has shape (A, 4, 4), B1.d (m, A, 4, 4)), and
    jeinsum broadcasts each contraction over it; each coupling's slice
    equals the scalar build bit for bit.
    """

    def __init__(self, frame: FieldFrame, alpha, g, gamma, Fmix, y, eps, nrm):
        self.frame, self.alpha, self.g, self.gamma = frame, alpha, g, gamma
        self.Fmix, self.y, self.eps, self.nrm = Fmix, y, eps, nrm
        self.l_up = y / nrm
        self.l_low = jeinsum("ij,j->i", g, self.l_up)
        self.n1 = jeinsum("ijk,k->ij", gamma, y)
        if frame.field_free:
            # F^i and eps l_j F^i are +0.0.  Adding -0.0 (eps = -1) keeps
            # every bit of nrm F^i_j, whose zeros take the signs of a jet
            # nrm's stack; adding +0.0 (eps = +1) makes each zero +0.0
            self.F_up = _zeros(y, DIM)
            self.b1 = nrm * self.Fmix if eps < 0 else _zeros(y, DIM, DIM)
        else:
            self.F_up = jeinsum("ij,j->i", self.Fmix, y)
            self.b1 = (eps * jeinsum("j,i->ij", self.l_low, self.F_up)
                       + nrm * self.Fmix)
        self.B1 = _lead(-0.5 * alpha, 2) * self.b1
        self.N = self.n1 + self.B1

    @cached_property
    def h_low(self):
        return self.g - self.eps * jeinsum("i,j->ij", self.l_low, self.l_low)

    # ---- alpha-free brackets of the contortion family ----

    @cached_property
    def b(self):
        if self.frame.field_free:
            return _zeros(self.y, DIM)
        return self.nrm * self.F_up

    @cached_property
    def b2(self):
        if self.frame.field_free:
            return _zeros(self.y, DIM, DIM, DIM)
        l_low, Fmix = self.l_low, self.Fmix
        return (jeinsum("jk,i->ijk", self.h_low, self.F_up) / self.nrm
                + jeinsum("j,ik->ijk", l_low, Fmix)
                + jeinsum("k,ij->ijk", l_low, Fmix))

    # ---- the contortion family and the affine connection ----

    @cached_property
    def B(self):
        return _lead(-0.5 * self.alpha, 1) * self.b

    @cached_property
    def B2(self):
        return _lead(-0.5 * self.alpha * self.eps, 3) * self.b2

    @cached_property
    def Gaff(self):
        return self.gamma + self.B2

    @cached_property
    def G(self):
        return 0.5 * jeinsum("ij,j->i", self.N, self.y)

    @cached_property
    def B3(self):
        """B^i_jkl, the third fiber derivative of B, as values on any tier.

        No reader needs its fiber derivatives.  On a jet tier it replays
        the Jet arithmetic on values, so it equals the value of a Jet
        build bit for bit: x / n is x * (1.0 / n), and a - b is a + (-b).
        """
        half_eps = _lead(-0.5 * self.alpha * self.eps, 4)
        if self.frame.field_free:
            over_nrm = over_nrm2 = _zeros(value_of(self.y), DIM, DIM, DIM,
                                          DIM)
        else:
            over_nrm, over_nrm2 = _b3_brackets(*map(value_of, (
                self.h_low, self.l_low, self.Fmix, self.F_up)))
        first = half_eps * over_nrm
        second = (half_eps * self.eps) * over_nrm2
        nrm = self.nrm
        if not isinstance(nrm, Jet):
            return first / nrm - second / (nrm * nrm)
        nrm = nrm.v
        return first * (1.0 / nrm) + (-(second * (1.0 / (nrm * nrm))))

    # ---- base derivatives, in closed form from the plain frame arrays ----

    @cached_property
    def dnrm(self):
        y = self.y
        dq = jeinsum("kab,ab->k", self.frame.dg, jeinsum("a,b->ab", y, y))
        return (self.eps / 2.0) * dq / self.nrm

    @cached_property
    def dF_up(self):
        return jeinsum("kij,j->ki", self.frame.dFmix, self.y)

    @cached_property
    def dn1(self):
        return jeinsum("kijm,m->kij", self.frame.dgamma, self.y)

    @cached_property
    def db(self):
        if self.frame.field_free:
            return _zeros(self.y, DIM, DIM)
        if self.frame.flat:
            return self.nrm * self.dF_up
        return jeinsum("k,i->ki", self.dnrm, self.F_up) + self.nrm * self.dF_up

    @cached_property
    def db1(self):
        if self.frame.field_free:
            return _zeros(self.y, DIM, DIM, DIM)
        frame, y, eps, nrm = self.frame, self.y, self.eps, self.nrm
        dnrm = self.dnrm
        ylow = jeinsum("ja,a->j", frame.g, y)
        dylow = jeinsum("kja,a->kj", frame.dg, y)
        dl_low = dylow / nrm - jeinsum("k,j->kj", dnrm, ylow) / (nrm * nrm)
        return (eps * (jeinsum("kj,i->kij", dl_low, self.F_up)
                       + jeinsum("j,ki->kij", self.l_low, self.dF_up))
                + jeinsum("k,ij->kij", dnrm, self.Fmix)
                + nrm * frame.dFmix)

    @cached_property
    def gravity_trace(self):
        """r^i_aib y^a y^b, the alpha = 0 tidal trace (plain y only)."""
        return float(einsum("iaib,a,b->", self.frame.riemann, self.y, self.y))

    # ---- curvature channel: the curvature of N ----

    @cached_property
    def dB(self):
        return _lead(-0.5 * self.alpha, 2) * self.db

    @cached_property
    def dB1(self):
        return _lead(-0.5 * self.alpha, 3) * self.db1

    @cached_property
    def R3(self):
        """The curvature of N, skipping what the frame's packs report zero.

        dN = dn1 + dB1: dn1 vanishes on a flat frame, and dB1 on a
        field-free one or a flat one with a uniform field.  A field-free
        frame has no contortion, so there G^i_jk is gamma^i_jk.
        """
        frame = self.frame
        dN = None if frame.flat else self.dn1
        if not (frame.field_free or frame.flat and frame.uniform):
            dN = self.dB1 if dN is None else dN + self.dB1
        # N^l_k G^i_jl; its (j, k) transpose is the N^l_j G^i_kl term
        P = jeinsum("lk,ijl->ijk", self.N,
                    self.gamma if frame.field_free else self.Gaff)
        if dN is None:
            return jeinsum("ikj->ijk", P) - P
        return (jeinsum("kij->ijk", dN) - jeinsum("jik->ijk", dN) - P
                + jeinsum("ikj->ijk", P))

    @cached_property
    def E(self):
        return jeinsum("ijk,k->ij", self.R3, self.y)


def _lead(factor, rank):
    """A 1-D coupling factor shaped to lead rank tensor slots; a scalar
    passes as is, so one-coupling callers pay no reshape."""
    if not isinstance(factor, np.ndarray):  # np.ndim costs 1-2 us a call
        return factor
    return factor.reshape(factor.shape + (1,) * rank)


def _zeros(like, *shape):
    """Exact +0.0 of the given tensor shape, in like's dtype: a zero stack
    of like's length when like is a Jet, else a plain array."""
    if isinstance(like, Jet):
        return Jet._of(np.zeros((len(like.s),) + shape, like.s.dtype), like.m)
    return np.zeros(shape, like.dtype)


def _b3_brackets(h_low, l_low, Fmix, F_up):
    hl = (jeinsum("jl,k->jkl", h_low, l_low)
          + jeinsum("j,kl->jkl", l_low, h_low)
          + jeinsum("l,jk->jkl", l_low, h_low))
    return (jeinsum("jk,il->ijkl", h_low, Fmix)
            + jeinsum("jl,ik->ijkl", h_low, Fmix)
            + jeinsum("kl,ij->ijkl", h_low, Fmix),
            jeinsum("jkl,i->ijkl", hl, F_up))


def fiber_parts(frame: FieldFrame, alpha, y, check=True) -> FiberParts:
    """The connection at one fiber; each part is built when first read.

    y may be a plain 4-vector or a Jet seeded in fiber directions; in the
    latter case every output carries exact fiber derivatives.  Either way
    the tier reads the frame's F^i_j, so parts.Fmix is frame.Fmix.

    check=False disables the near-null rejection.  Adaptive integrators
    evaluate trial stages at states the solution never visits; those must
    produce large finite values (which the step control then rejects) rather
    than raise.
    """
    nrm_v, eps = norm_and_sign(frame.g, value_of(y), check)
    if isinstance(y, Jet):
        q = jeinsum("i,i->", jeinsum("ij,j->i", frame.g, y), y)
        nrm = jsqrt(eps * q)
    else:
        y = np.asarray(y, dtype=float)
        nrm = nrm_v
    return FiberParts(frame, alpha, frame.g, frame.gamma, frame.Fmix, y, eps,
                      nrm)


# ---- phase jets and fields on the tangent bundle ----------------------

X_DIRS = slice(0, DIM)
Y_DIRS = slice(DIM, 2 * DIM)
_IDENTITY = np.eye(DIM)  # the fiber seed's derivatives; never written
_IDENTITY.flags.writeable = False


def phase_context(frame: FieldFrame, alpha, y):
    """Connection data as order-1 jets in all eight phase directions.

    Directions 0..3 are base, 4..7 fiber.  The jets are order 1: the
    adapted derivatives read first derivatives only, and those are exact.
    g, gamma and the frame's F^i_j are lifted with their base derivatives
    and no fiber dependence; y is seeded in the fiber directions.
    """
    m = 2 * DIM
    g = Jet.from_pack(frame.g, frame.dg, m)
    gamma = Jet.from_pack(frame.gamma, frame.dgamma, m)
    Fmix = Jet.from_pack(frame.Fmix, frame.dFmix, m)
    yj = Jet.from_pack(np.asarray(y, dtype=float), _IDENTITY, m, start=DIM)
    _, eps = norm_and_sign(frame.g, y)
    q = jeinsum("i,i->", jeinsum("ij,j->i", g, yj), yj)
    nrm = jsqrt(eps * q)
    return FiberParts(frame, alpha, g, gamma, Fmix, yj, eps, nrm)


@dataclass(frozen=True)
class PhaseFieldSpec:
    """A tensor field on the tangent bundle given by its jet components.

    variance: '' for a scalar, 'u' for a vector, 'd' for a covector;
    any other is refused.  build maps a phase_context to a Jet of
    coordinate components.

    Over a batch of couplings the context's coupling-dependent reads
    (B, N, Gaff, ...) carry the coupling axis ahead of their tensor
    slots, so build indexes a slot from the end: ctx.B[..., 0], not
    ctx.B[0], which would pick a coupling.  Its value may lead with that
    coupling axis or lack it; any other leading axis is refused.  A batch
    of exactly DIM couplings also runs build on a phase_context at its
    first coupling alone, since there a picked slot and the coupling axis
    have the same length.
    """

    variance: str
    build: object

    def __post_init__(self):
        if self.variance not in ("", "u", "d"):
            raise ValueError(f"phase field variance must be '', 'u' or "
                             f"'d', got {self.variance!r}")


unit_direction_low = PhaseFieldSpec("d", lambda ctx: ctx.l_low)
contortion_vector = PhaseFieldSpec("u", lambda ctx: ctx.B)


TraceDecomposition = namedtuple(
    "TraceDecomposition", "lhs rhs gravity_trace divergence quadratic")


# ---- one phase point at one coupling ------------------------------------

class Sample:
    """A phase point (x, y) of TM at one coupling, read on demand.

    Three tiers, each built on first read and kept: plain (fiber_parts on
    y), jet (fiber_parts on a fiber-seeded order-2 Jet, for exact fiber
    derivatives) and phase (phase_context, for adapted derivatives).  The
    reads below are shared by more than one caller; each builds only the
    tiers it needs.  The frame may be shared by many samples.

    alpha may be a 1-D array of couplings: then each tier is one batched
    FiberParts, its alpha-free data built once for every coupling, and
    every read carries the coupling axis first.  The shape of alpha picks
    only the return shape of td and covariant, never a second path.

    perturbation adds a constant to every N^i_j in the torsion read only
    (the negative control; see strong_torsion).
    """

    def __init__(self, frame: FieldFrame, alpha, y, perturbation=0.0):
        self.frame, self.alpha = frame, alpha
        self.y = np.asarray(y, dtype=float)
        self.perturbation = perturbation

    @cached_property
    def plain(self) -> FiberParts:
        return fiber_parts(self.frame, self.alpha, self.y)

    @cached_property
    def jet(self) -> FiberParts:
        return fiber_parts(self.frame, self.alpha, Jet.seed(self.y, DIM))

    @cached_property
    def phase(self) -> FiberParts:
        return phase_context(self.frame, self.alpha, self.y)

    @cached_property
    def torsion(self):
        """Strong torsion y^k dN^i_k/dy^j - N^i_j, from the jet tier."""
        N = self.jet.N
        return (einsum("j...ik,k->...ij", N.d, self.y)
                - (N.v + self.perturbation))

    @cached_property
    def trace_E(self):
        """The tidal trace E^i_i from the jet tier."""
        return self.jet.E.v.trace(axis1=-2, axis2=-1)

    @cached_property
    def angular_E(self):
        """The angular tidal tensor h_ik E^k_j from the jet tier."""
        return self.jet.h_low.v @ self.jet.E.v

    @cached_property
    def block(self):
        """Curvature block [j,i,k,l]: half the fiber Hessian of E."""
        return 0.5 * einsum("jl...ik->...jikl", self.jet.E.h)

    @cached_property
    def ricci(self):
        """Ricci tensor of the affine connection, from the Hessian of E."""
        return -0.5 * einsum("ZY...ii->...ZY", self.jet.E.h)

    @cached_property
    def td(self) -> TraceDecomposition:
        """Both sides of the tidal-trace split, from the plain tier.

        The divergence is the Levi-Civita horizontal divergence of B in
        closed form, d_i B^i - n^l_i B^i_l + gamma^i_ai B^a.  Floats at
        one coupling, arrays over a batch.
        """
        frame, parts = self.frame, self.plain
        e_trace = parts.gravity_trace
        div = (einsum("...ii->...", parts.dB)
               - einsum("li,...il->...", parts.n1, parts.B1)
               + einsum("iai,...a->...", frame.gamma, parts.B))
        quad = einsum("...li,...il->...", parts.B1, parts.B1)
        values = (parts.E.trace(axis1=-2, axis2=-1),
                  e_trace - 2.0 * div + quad, e_trace, div, quad)
        if not isinstance(self.alpha, np.ndarray) or not self.alpha.ndim:
            values = map(float, values)
        return TraceDecomposition(*values)

    def covariant(self, field: PhaseFieldSpec, reference="full"):
        """Covariant derivative of a phase field: d_covariant_derivative."""
        out = _covariant(self.frame, self.phase, field, reference)
        alpha = self.alpha
        couplings = alpha.shape if isinstance(alpha, np.ndarray) else ()
        if not couplings:
            return out[0]
        return np.broadcast_to(out, couplings + out.shape[1:])


def _covariant(frame, ctx, field, reference):
    """The covariant derivative on the phase tier ctx, coupling axis first.

    Every operand gets a coupling axis (length 1 where it is
    coupling-free) and broadcasts over it.  A vector or covector adds one
    connection term, a stacked matmul: the product np.tensordot takes at
    one coupling, so a batch equals its couplings bit for bit.
    """
    T, rank = field.build(ctx), len(field.variance)
    couplings = ctx.alpha.shape if isinstance(ctx.alpha, np.ndarray) else ()
    builds = [(T, couplings)]
    if couplings == (DIM,):
        # a slot indexed as a coupling (ctx.B[0]) leaves a leading axis as
        # long as this coupling axis; on one coupling it cannot pass
        builds.append((field.build(phase_context(
            frame, ctx.alpha[:1], value_of(ctx.y))), (1,)))
    for built, couplings in builds:
        lead = built.v.shape[:built.v.ndim - rank]
        if lead not in ((), couplings):
            raise ValueError(
                f"phase field {field!r} built values with leading axes "
                f"{lead}; expected none or the coupling axis {couplings}")
    base = reference == "base"
    N_value = value_of(ctx.n1 if base else ctx.N)
    N_value = N_value if N_value.ndim == 3 else N_value[None]
    V, dT = (T.v, T.d) if T.v.ndim > rank else (T.v[None], T.d[:, None])
    # delta_k T = d_k T - N^l_k dT/dy^l, derivative axis moved last
    delta = (dT[X_DIRS].swapaxes(0, 1)
             - einsum("alk,la...->ak...", N_value, dT[Y_DIRS]))
    out = delta.transpose(0, *range(2, delta.ndim), 1)
    if not rank:
        return out
    coeff = frame.gamma if base else value_of(ctx.Gaff)
    coeff = coeff if coeff.ndim == 4 else coeff[None]
    # +G^i_mk T^m or -G^m_ik T_m, summed over m as (ik, m) @ m
    up = field.variance == "u"
    C = coeff.transpose(0, 1, 3, 2) if up else coeff.transpose(0, 2, 3, 1)
    term = (C.reshape(len(C), DIM * DIM, DIM) @ V[..., None]).reshape(
        -1, DIM, DIM)
    return out + term if up else out - term


# ---- public per-point operations: each reads one Sample -----------------

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

    @classmethod
    def read(cls, s: Sample, p: PhasePoint) -> ConnectionData:
        """The connection of Sample s (at p) from its plain tier."""
        parts = s.plain
        fam = ContortionFamily(parts.B, parts.B1, parts.B2, parts.B3)
        return cls(point=p, alpha=float(s.alpha), christoffel=s.frame.gamma,
                   faraday_mixed=parts.Fmix, faraday_fiber=parts.F_up,
                   contortion=fam, spray=parts.G, nonlinear=parts.N,
                   affine=parts.Gaff)


def connection_data(metric, potential, alpha, p: PhasePoint) -> ConnectionData:
    return ConnectionData.read(
        Sample(field_frame(metric, potential, p.x), alpha, p.y), p)


def strong_torsion(metric, potential, alpha, p: PhasePoint, perturbation=0.0):
    """Homogeneity defect y^k dN^i_k/dy^j - N^i_j; zero for spray connections.

    perturbation adds a constant to every N^i_j, turning the connection
    into a non-spray one with torsion exactly -perturbation (the negative
    control used by the verification suite).
    """
    frame = field_frame(metric, potential, p.x)
    return Sample(frame, alpha, p.y, perturbation).torsion


def d_covariant_derivative(metric, potential, alpha, p: PhasePoint, field,
                           reference="full"):
    """Covariant derivative along the adapted basis, derivative axis last.

    The field is a scalar, a vector T^i or a covector T_j (rank 0 or 1):
    the result adds +G^i_ak T^a or -G^a_jk T_a on top of the adapted
    derivative delta_k = d/dx^k - N^l_k d/dy^l.  reference="base" uses the
    alpha = 0 coefficients (Levi-Civita transport) instead.
    """
    frame = field_frame(metric, potential, p.x)
    return Sample(frame, alpha, p.y).covariant(field, reference)
