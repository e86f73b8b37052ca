"""Spray, nonlinear connection, and affine coefficients on the tangent bundle.

Everything here is assembled from closed-form pieces: the Levi-Civita part
gamma^i_jk(x) y^k and the charge part built from the contortion family

    B^i      = -(alpha/2) ||y|| F^i
    B^i_j    = -(alpha/2) (eps l_j F^i + ||y|| F^i_j)
    B^i_jk   = -(alpha/2) eps (h_jk F^i / ||y|| + l_j F^i_k + l_k F^i_j)

with F^i = F^i_j y^j, l = y/||y||, h the angular metric, and eps the causal
sign.  On spacelike fibers (eps = +1) these reduce to the textbook Randers
expressions; the eps insertions keep every identity exact on timelike
fibers under the positive-norm convention.  The third fiber derivative
B^i_jkl is built on demand (_contortion_third), only where it is read.

Index layout of derivative arrays is always derivative-axis leading:
dN[k,i,j] = d(N^i_j)/dx^k.  Fiber quantities accept a Jet for y, so exact
fiber derivatives of anything assembled here come out of the same code
path that produces plain numbers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import FrameMismatchError
from .fields import MetricField, PotentialField, christoffel, faraday, coords_compatible
from .jets import Jet, jeinsum, jsqrt, value_of
from .tensors import DIM, PhasePoint, norm_and_sign


@dataclass(frozen=True)
class FieldFrame:
    """Base-point snapshot of the metric and potential with derivatives.

    Fiber-independent; one frame serves every y and alpha at its point.
    """

    x: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    dginv: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray
    A: np.ndarray
    F: np.ndarray
    dF: np.ndarray
    Fmix: np.ndarray
    dFmix: np.ndarray


def field_frame(metric: MetricField, potential: PotentialField, x,
                check=True) -> FieldFrame:
    if not coords_compatible(metric, potential):
        raise FrameMismatchError(
            f"{metric.name} uses {metric.coords} coordinates but "
            f"{potential.name} expects {potential.coords}")
    x = np.asarray(x, dtype=float)
    mp = metric.pack(x, check=check)
    pp = potential.pack(x, check=check)
    gamma, dgamma = christoffel(mp)
    F, dF = faraday(pp)
    ginv = mp.ginv
    dginv = -np.einsum("ia,mab,bl->mil", ginv, mp.dg, ginv)
    Fmix = ginv @ F
    dFmix = np.einsum("kia,aj->kij", dginv, F) + np.einsum("ia,kaj->kij", ginv, dF)
    return FieldFrame(x=x, g=mp.g, ginv=ginv, dg=mp.dg, dginv=dginv,
                      gamma=gamma, dgamma=dgamma, A=pp.A, F=F, dF=dF,
                      Fmix=Fmix, dFmix=dFmix)


def phase_point(metric: MetricField, x, y) -> PhasePoint:
    return PhasePoint.create(metric.pack(np.asarray(x, dtype=float)).g, x, y)


def _contortion(g, ginv, gamma, F, alpha, y, eps, nrm):
    """Shared fiber algebra; any of g/ginv/gamma/F/y may be a Jet."""
    l_up = y / nrm
    l_low = jeinsum("ij,j->i", g, l_up)
    h_low = g - eps * jeinsum("i,j->ij", l_low, l_low)
    Fmix = jeinsum("ia,aj->ij", ginv, F)
    F_up = jeinsum("ij,j->i", Fmix, y)
    F_low = jeinsum("ij,j->i", F, y)
    half = -0.5 * alpha
    B = half * (nrm * F_up)
    B1 = half * (eps * jeinsum("j,i->ij", l_low, F_up) + nrm * Fmix)
    B2 = (half * eps) * (jeinsum("jk,i->ijk", h_low, F_up) / nrm
                         + jeinsum("j,ik->ijk", l_low, Fmix)
                         + jeinsum("k,ij->ijk", l_low, Fmix))
    n1 = jeinsum("ijk,k->ij", gamma, y)
    N = n1 + B1
    Gaff = gamma + B2
    G = 0.5 * jeinsum("ij,j->i", N, y)
    return SimpleNamespace(alpha=alpha, eps=eps, nrm=nrm, l_up=l_up,
                           l_low=l_low, h_low=h_low,
                           Fmix=Fmix, F_up=F_up, F_low=F_low,
                           B=B, B1=B1, B2=B2,
                           n1=n1, N=N, Gaff=Gaff, G=G)


def _contortion_third(parts):
    """B^i_jkl, the third fiber derivative of B, from _contortion's parts.

    Only a few readers need it, so fiber_parts does not build it.
    """
    eps, nrm, h_low, l_low = parts.eps, parts.nrm, parts.h_low, parts.l_low
    Fmix, F_up = parts.Fmix, parts.F_up
    half = -0.5 * parts.alpha
    hl = (jeinsum("jl,k->jkl", h_low, l_low)
          + jeinsum("j,kl->jkl", l_low, h_low)
          + jeinsum("l,jk->jkl", l_low, h_low))
    return (half * eps) * (jeinsum("jk,il->ijkl", h_low, Fmix)
                           + jeinsum("jl,ik->ijkl", h_low, Fmix)
                           + jeinsum("kl,ij->ijkl", h_low, Fmix)) / nrm \
        - (half * eps * eps) * jeinsum("jkl,i->ijkl", hl, F_up) / (nrm * nrm)


def _curvature_channel(frame: FieldFrame, alpha, parts, y):
    """Base-derivative channel and the curvature of N.

    Works for plain y or a fiber-seeded Jet; frame arrays stay plain
    because the x-dependence is differentiated in closed form here.
    """
    eps, nrm = parts.eps, parts.nrm
    dq = jeinsum("kab,ab->k", frame.dg, jeinsum("a,b->ab", y, y))
    dnrm = (eps / 2.0) * dq / nrm
    ylow = jeinsum("ja,a->j", frame.g, y)
    dylow = jeinsum("kja,a->kj", frame.dg, y)
    dl_low = dylow / nrm - jeinsum("k,j->kj", dnrm, ylow) / (nrm * nrm)
    dF_up = jeinsum("kij,j->ki", frame.dFmix, y)
    half = -0.5 * alpha
    dB = half * (jeinsum("k,i->ki", dnrm, parts.F_up) + nrm * dF_up)
    dB1 = half * (eps * (jeinsum("kj,i->kij", dl_low, parts.F_up)
                         + jeinsum("j,ki->kij", parts.l_low, dF_up))
                  + jeinsum("k,ij->kij", dnrm, parts.Fmix)
                  + nrm * frame.dFmix)
    dN = jeinsum("kijm,m->kij", frame.dgamma, y) + dB1
    R3 = (jeinsum("kij->ijk", dN) - jeinsum("jik->ijk", dN)
          - jeinsum("lk,ijl->ijk", parts.N, parts.Gaff)
          + jeinsum("lj,ikl->ijk", parts.N, parts.Gaff))
    E = jeinsum("ijk,k->ij", R3, y)
    return SimpleNamespace(dnrm=dnrm, dl_low=dl_low, dF_up=dF_up,
                           dB=dB, dB1=dB1, dN=dN, R3=R3, E=E)


def fiber_parts(frame: FieldFrame, alpha, y, curvature=False, check=True):
    """Assemble the connection (and optionally curvature) data at one fiber.

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
    parts = _contortion(frame.g, frame.ginv, frame.gamma, frame.F,
                        alpha, y, eps, nrm)
    if curvature:
        chan = _curvature_channel(frame, alpha, parts, y)
        for key, val in vars(chan).items():
            setattr(parts, key, val)
    return parts


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


def _point_parts(metric, potential, alpha, p: PhasePoint, curvature=False):
    frame = field_frame(metric, potential, p.x)
    return frame, fiber_parts(frame, alpha, p.y, curvature=curvature)


def connection_data(metric, potential, alpha, p: PhasePoint) -> ConnectionData:
    frame, parts = _point_parts(metric, potential, alpha, p)
    fam = ContortionFamily(parts.B, parts.B1, parts.B2,
                           _contortion_third(parts))
    return ConnectionData(point=p, alpha=float(alpha),
                          christoffel=frame.gamma, faraday_mixed=parts.Fmix,
                          faraday_fiber=parts.F_up, contortion=fam,
                          spray=parts.G, nonlinear=parts.N, affine=parts.Gaff)


def b_family(metric, potential, alpha, p: PhasePoint) -> ContortionFamily:
    """Contortion vector B^i and its first three fiber derivatives."""
    _, parts = _point_parts(metric, potential, alpha, p)
    return ContortionFamily(parts.B, parts.B1, parts.B2,
                            _contortion_third(parts))


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
    parts = _contortion(g, ginv, gamma, F, alpha, yj, eps, nrm)
    parts.x = Jet.from_pack(frame.x, eye, m)
    parts.y = yj
    parts.g = g
    parts.ginv = ginv
    parts.gamma = gamma
    parts.F = F
    parts.q = q
    parts.frame = frame
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
unit_direction_up = PhaseFieldSpec("u", lambda ctx: ctx.l_up)
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
