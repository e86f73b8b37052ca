"""Forward-mode Taylor propagation to first or second order.

A Jet carries a value together with exact derivatives along m seed
directions: first derivatives d always, second derivatives h only for an
order-2 jet.  An order-1 jet carries no h (h is None) and skips all
second-order work; the order comes from the operands, and mixing orders
is an error.  Derivatives are exact (product/quotient/chain rules), never
finite differences.

All components live in one array s, stacked on its leading axis in the
order value, first derivatives, second derivatives: s has shape
(1 + m,) + shape(v) at order 1 and (1 + m + m*m,) + shape(v) at order 2,
with h[a, b] at s[1 + m*(1 + a) + b].  v = s[0], d = s[1:1+m] and
h = s[1+m:] reshaped to (m, m) + shape(v) are views of it (a scalar
jet's v is a numpy scalar), so d's leading axis and h's two leading axes
index the seed directions and the trailing axes are ordinary tensor
slots.  An operation that is linear in the jet (a sum, a product with an
array, a contraction with an array) runs once over the whole stack.

Batch axes (the couplings of one phase point) sit between the two: they
follow the seed axes and lead the tensor slots, so v has shape
(A,)+tensor, d (m, A)+tensor and h (m, m, A)+tensor.  The arithmetic
broadcasts over them, and so does jeinsum, which puts "..." before every
subscript of its spec; without batch axes that moves no bits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# numpy's einsum kernel, bound once.  np.einsum with its default
# optimize=False only forwards (spec, *operands) to this function, so a
# call through it gives the same bits without the Python-level dispatch
# wrapper, which costs more than the arithmetic on 4x4 arrays.  Every
# contraction in the package calls it.
try:  # numpy >= 2
    from numpy._core.multiarray import c_einsum as einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum as einsum

_JET_AXES = "ZY"  # reserved subscript letters for derivative axes


def _pad(arr, jet_axes, tensor_rank):
    """Insert singleton tensor axes so jet axes stay leading under broadcasting."""
    have = arr.ndim - jet_axes
    if have >= tensor_rank:
        return arr
    shape = arr.shape[:jet_axes] + (1,) * (tensor_rank - have) + arr.shape[jet_axes:]
    return arr.reshape(shape)


class Jet:
    """Multivariate Taylor value: v, d[a,...] and, at order 2, h[a,b,...].

    The components are held in one array s (see the module docstring);
    v, d and h are views of it.  The constructor copies v, d and h into a
    new stack, broadcasting d to (m,)+shape(v) and h to (m,m)+shape(v).
    h=None makes an order-1 jet.
    """

    __slots__ = ("s", "m")

    # keep numpy from absorbing us into object arrays; binary ops must
    # fall through to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, v, d, h=None):
        v = np.asarray(v, dtype=float)
        d = np.asarray(d, dtype=float)
        m = d.shape[0]
        s = np.empty((1 + m + (0 if h is None else m * m),) + v.shape)
        s[0] = v
        s[1:1 + m] = _pad(d, 1, v.ndim)
        if h is not None:
            h = np.broadcast_to(_pad(np.asarray(h, dtype=float), 2, v.ndim),
                                (m, m) + v.shape)
            s[1 + m:] = h.reshape(s[1 + m:].shape)
        self.s, self.m = s, m

    @classmethod
    def _of(cls, s, m):
        jet = cls.__new__(cls)
        jet.s, jet.m = s, m
        return jet

    @property
    def v(self):
        return self.s[0]

    @property
    def d(self):
        return self.s[1:1 + self.m]

    @property
    def h(self):
        s, m = self.s, self.m
        if len(s) == 1 + m:
            return None
        return s[1 + m:].reshape((m, m) + s.shape[1:])

    # ---- constructors -------------------------------------------------

    @classmethod
    def seed(cls, vec, m):
        """Seed a vector of k independent variables into directions 0..k-1.

        The seed is an order-2 jet: one zeroed stack with vec for its
        value and np.eye(m, k) for its first derivatives.
        """
        vec = np.asarray(vec, dtype=float)
        k = len(vec)
        s = np.zeros((1 + m + m * m, k))
        s[0] = vec
        s[1:1 + min(m, k)].reshape(-1)[::k + 1] = 1.0
        return cls._of(s, m)

    @classmethod
    def from_pack(cls, value, d1, m, start=0):
        """Lift a field with known first derivatives into an order-1 Jet.

        d1 has shape (r,)+shape(value) with the derivative direction leading;
        the r directions occupy jet directions start..start+r.
        """
        value = np.asarray(value, dtype=float)
        d1 = np.asarray(d1, dtype=float)
        s = np.zeros((1 + m,) + value.shape)
        s[0] = value
        s[1 + start:1 + start + d1.shape[0]] = d1
        return cls._of(s, m)

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            _check_pair(self, other)
            r = max(self.s.ndim, other.s.ndim) - 1
            return Jet._of(_pad(self.s, 1, r) + _pad(other.s, 1, r), self.m)
        # an array moves the value only; the derivatives are copied as is
        v = self.s[0] + np.asarray(other)
        s = np.empty((len(self.s),) + v.shape, dtype=v.dtype)
        s[0] = v
        s[1:] = _pad(self.s[1:], 1, v.ndim)
        return Jet._of(s, self.m)

    __radd__ = __add__

    def __neg__(self):
        return Jet._of(-self.s, self.m)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self + (-other)
        return self + (-np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        m = self.m
        if isinstance(other, Jet):
            _check_pair(self, other)
            r = max(self.s.ndim, other.s.ndim) - 1
            a, b = _pad(self.s, 1, r), _pad(other.s, 1, r)
            s = a * b[0]
            s[1:] += a[0] * b[1:]
            if len(s) > 1 + m:
                cross = a[1:1 + m, None] * b[None, 1:1 + m]
                _add_cross(s, m, cross, cross.swapaxes(0, 1))
            return Jet._of(s, m)
        other = np.asarray(other)
        return Jet._of(_pad(self.s, 1, other.ndim) * other, m)

    __rmul__ = __mul__

    def reciprocal(self):
        m, d = self.m, self.d
        r = 1.0 / self.s[0]
        s = -self.s
        s *= r
        s *= r
        s[0] = r
        if len(s) > 1 + m:
            _add_cross(s, m, 2.0 * d[:, None] * d[None, :] * r ** 3)
        return Jet._of(s, m)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def sqrt(self):
        m, d = self.m, self.d
        root = np.sqrt(self.s[0])
        s = self.s / (2.0 * root)
        s[0] = root
        if len(s) > 1 + m:
            _add_cross(s, m, -(d[:, None] * d[None, :] / (4.0 * root ** 3)))
        return Jet._of(s, m)

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet._of(self.s[(slice(None),) + idx], self.m)


def _add_cross(s, m, *terms):
    """Add (m, m)+shape terms, in order, to the Hessian block of stack s."""
    h = s[1 + m:]
    for term in terms:
        h += term.reshape(h.shape)


def _check_pair(a, b):
    """Two jet operands must share direction count and order."""
    if a.m != b.m:
        raise ValueError("jet direction counts differ")
    if len(a.s) != len(b.s):
        raise ValueError("jet orders differ")


def jsqrt(x):
    return x.sqrt() if isinstance(x, Jet) else np.sqrt(x)


def value_of(x):
    return x.v if isinstance(x, Jet) else np.asarray(x, dtype=float)


@lru_cache(maxsize=None)
def _split(spec):
    # spec with "..." leading every operand and the output, then the specs
    # that carry the stack axis Z (and, for the cross term, Y) of a jet
    # operand; cached, as the specs are a few dozen literals and parsing
    # costs a quarter of a call
    lhs, out = spec.split("->")
    subs = tuple("..." + s for s in lhs.split(","))
    out = "..." + out
    for s in subs + (out,):
        for letter in _JET_AXES:
            if letter in s:
                raise ValueError(f"subscript letter {letter!r} is reserved")
    Z, Y = _JET_AXES
    if len(subs) == 1:
        jet = (f"{Z}{subs[0]}->{Z}{out}",)
    else:
        sa, sb = subs[:2]
        jet = (f"{Z}{sa},{sb}->{Z}{out}", f"{sa},{Z}{sb}->{Z}{out}",
               f"{Z}{sa},{Y}{sb}->{Z}{Y}{out}")
    return ",".join(subs) + "->" + out, jet


def jeinsum(spec, *ops):
    """einsum over one or two operands, any of which may be a Jet; spec
    names the tensor slots, and leading batch axes broadcast.

    A jet operand enters with its whole stack, so a contraction with an
    array is one einsum; two jets add the value-times-derivative and the
    cross terms.  np.einsum sums every two-operand contraction onto a
    zeroed output, so no -0.0 comes out of one, as the product rule summed
    onto zeros reads.
    """
    spec, jet_specs = _split(spec)
    if len(ops) == 1:
        (a,) = ops
        if not isinstance(a, Jet):
            return einsum(spec, a)
        return Jet._of(einsum(jet_specs[0], a.s), a.m)
    if len(ops) != 2:
        raise ValueError("jeinsum supports one or two operands")
    a, b = ops
    ja, jb = isinstance(a, Jet), isinstance(b, Jet)
    if not ja and not jb:
        return einsum(spec, a, b)
    left, right, cross = jet_specs
    if not ja:
        return Jet._of(einsum(right, a, b.s), b.m)
    if not jb:
        return Jet._of(einsum(left, a.s, b), a.m)
    _check_pair(a, b)
    m = a.m
    s = einsum(left, a.s, b.s[0])
    s[1:] += einsum(right, a.s[0], b.s[1:])
    if len(s) > 1 + m:
        c = einsum(cross, a.s[1:1 + m], b.s[1:1 + m])
        _add_cross(s, m, c + c.swapaxes(0, 1))
    return Jet._of(s, m)
