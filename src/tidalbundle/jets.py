"""Forward-mode Taylor propagation to first or second order.

A Jet carries a value together with exact derivatives along m seed
directions: first derivatives d always, second derivatives h only for an
order-2 jet.  An order-1 jet carries no h (h is None) and skips all
second-order work; the order comes from the operands, and mixing orders
is an error.  Components are numpy arrays whose *leading* axes index the
seed directions; trailing axes are ordinary tensor slots, so einsum-style
contractions stay readable.  Derivatives are exact (product/quotient/chain
rules), never finite differences.
"""

from __future__ import annotations

import numpy as np

_JET_AXES = "ZY"  # reserved subscript letters for derivative axes


def _pad(arr, jet_axes, tensor_rank):
    """Insert singleton tensor axes so jet axes stay leading under broadcasting."""
    have = arr.ndim - jet_axes
    if have == tensor_rank:
        return arr
    shape = arr.shape[:jet_axes] + (1,) * (tensor_rank - have) + arr.shape[jet_axes:]
    return arr.reshape(shape)


class Jet:
    """Multivariate Taylor value: v, d[a,...] and, at order 2, h[a,b,...].

    The constructor normalizes shapes: d is held as (m,)+shape(v) and h as
    (m,m)+shape(v), broadcasting read-only views where needed.  h=None
    makes an order-1 jet.
    """

    __slots__ = ("v", "d", "h", "m")

    # keep numpy from absorbing us into object arrays; binary ops must
    # fall through to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, v, d, h=None):
        v = np.asarray(v, dtype=float)
        d = np.asarray(d, dtype=float)
        m = d.shape[0]
        if d.shape != (m,) + v.shape:
            d = np.broadcast_to(_pad(d, 1, v.ndim), (m,) + v.shape)
        if h is not None:
            h = np.asarray(h, dtype=float)
            if h.shape != (m, m) + v.shape:
                h = np.broadcast_to(_pad(h, 2, v.ndim), (m, m) + v.shape)
        self.v, self.d, self.h, self.m = v, d, h, m

    # ---- constructors -------------------------------------------------

    @classmethod
    def seed(cls, vec, m, start=0):
        """Seed a vector of independent variables into directions start..start+k.

        The seed is an order-2 jet.
        """
        vec = np.asarray(vec, dtype=float)
        k = vec.shape[0]
        d = np.zeros((m,) + vec.shape)
        for a in range(k):
            d[start + a, a] = 1.0
        return cls(vec, d, np.zeros((m, m) + vec.shape))

    @classmethod
    def from_pack(cls, value, d1, m, start=0):
        """Lift a field with known first derivatives into an order-1 Jet.

        d1 has shape (r,)+shape(value) with the derivative direction leading;
        the r directions occupy jet directions start..start+r.
        """
        value = np.asarray(value, dtype=float)
        d1 = np.asarray(d1, dtype=float)
        r = d1.shape[0]
        d = np.zeros((m,) + value.shape)
        d[start:start + r] = d1
        return cls(value, d)

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            _check_pair(self, other)
            r = len(np.broadcast_shapes(self.v.shape, other.v.shape))
            h = None if self.h is None else \
                _pad(self.h, 2, r) + _pad(other.h, 2, r)
            return Jet(self.v + other.v,
                       _pad(self.d, 1, r) + _pad(other.d, 1, r), h)
        return Jet(self.v + np.asarray(other, dtype=float), self.d, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.d, None if self.h is None else -self.h)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self + (-other)
        return self + (-np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            _check_pair(self, other)
            r = len(np.broadcast_shapes(self.v.shape, other.v.shape))
            ad, bd = _pad(self.d, 1, r), _pad(other.d, 1, r)
            d = ad * other.v + self.v * bd
            h = None
            if self.h is not None:
                ah, bh = _pad(self.h, 2, r), _pad(other.h, 2, r)
                h = (ah * other.v + self.v * bh
                     + ad[:, None] * bd[None, :] + ad[None, :] * bd[:, None])
            return Jet(self.v * other.v, d, h)
        other = np.asarray(other, dtype=float)
        r = len(np.broadcast_shapes(self.v.shape, other.shape))
        return Jet(self.v * other,
                   _pad(self.d, 1, r) * other,
                   None if self.h is None else _pad(self.h, 2, r) * other)

    __rmul__ = __mul__

    def reciprocal(self):
        r = 1.0 / self.v
        d = -self.d * r * r
        h = None
        if self.h is not None:
            h = -self.h * r * r + 2.0 * self.d[:, None] * self.d[None, :] * r ** 3
        return Jet(r, d, h)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def sqrt(self):
        s = np.sqrt(self.v)
        d = self.d / (2.0 * s)
        h = None
        if self.h is not None:
            h = (self.h / (2.0 * s)
                 - self.d[:, None] * self.d[None, :] / (4.0 * s ** 3))
        return Jet(s, d, h)

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        full = (slice(None),)
        return Jet(self.v[idx], self.d[full + idx],
                   None if self.h is None else self.h[full + full + idx])


def _check_pair(a, b):
    """Two jet operands must share direction count and order."""
    if a.m != b.m:
        raise ValueError("jet direction counts differ")
    if (a.h is None) != (b.h is None):
        raise ValueError("jet orders differ")


def jsqrt(x):
    return x.sqrt() if isinstance(x, Jet) else np.sqrt(x)


def value_of(x):
    return x.v if isinstance(x, Jet) else np.asarray(x, dtype=float)


def _split(spec):
    lhs, out = spec.split("->")
    subs = lhs.split(",")
    for s in subs + [out]:
        for letter in _JET_AXES:
            if letter in s:
                raise ValueError(f"subscript letter {letter!r} is reserved")
    return subs, out


def jeinsum(spec, *ops):
    """einsum over one or two operands, any of which may be a Jet."""
    subs, out = _split(spec)
    Z, Y = _JET_AXES
    if len(ops) == 1:
        (a,), (sa,) = ops, subs
        if not isinstance(a, Jet):
            return np.einsum(spec, a)
        return Jet(np.einsum(spec, a.v),
                   np.einsum(f"{Z}{sa}->{Z}{out}", a.d),
                   None if a.h is None
                   else np.einsum(f"{Z}{Y}{sa}->{Z}{Y}{out}", a.h))
    if len(ops) != 2:
        raise ValueError("jeinsum supports one or two operands")
    a, b = ops
    sa, sb = subs
    ja, jb = isinstance(a, Jet), isinstance(b, Jet)
    if not ja and not jb:
        return np.einsum(spec, a, b)
    if ja and jb:
        _check_pair(a, b)
    av, bv = value_of(a), value_of(b)
    v = np.einsum(spec, av, bv)
    jet = a if ja else b
    m = jet.m
    d = np.zeros((m,) + v.shape)
    if ja:
        d += np.einsum(f"{Z}{sa},{sb}->{Z}{out}", a.d, bv)
    if jb:
        d += np.einsum(f"{sa},{Z}{sb}->{Z}{out}", av, b.d)
    if jet.h is None:
        return Jet(v, d)
    h = np.zeros((m, m) + v.shape)
    if ja:
        h += np.einsum(f"{Z}{Y}{sa},{sb}->{Z}{Y}{out}", a.h, bv)
    if jb:
        h += np.einsum(f"{sa},{Z}{Y}{sb}->{Z}{Y}{out}", av, b.h)
    if ja and jb:
        cross = np.einsum(f"{Z}{sa},{Y}{sb}->{Z}{Y}{out}", a.d, b.d)
        h += cross + np.swapaxes(cross, 0, 1)
    return Jet(v, d, h)
