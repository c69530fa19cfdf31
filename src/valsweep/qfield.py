"""Exact arithmetic in real quadratic fields.

Elements are stored as (s + t*sqrt(d))/r with integer s, t, positive r,
and d a squarefree positive nonsquare.  All comparisons are decided by
exact integer sign tests; no floating point enters the certified path.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Iterator, NamedTuple

from .errors import CertificationError, QFieldError


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = t*t*d with d squarefree.  Returns (t, d).  Requires n > 0."""
    if n <= 0:
        raise QFieldError("positive integer required")
    t, d = 1, 1
    f = 2
    m = n
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            t *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    d *= m
    return t, d


def sign_of(s: int, t: int, d: int) -> int:
    """Exact sign of s + t*sqrt(d) for d > 0, decided on integers."""
    if t == 0:
        return (s > 0) - (s < 0)
    if s == 0 or (s > 0) == (t > 0):
        return 1 if t > 0 else -1
    # opposite signs: compare s^2 against t^2 d
    if s * s > t * t * d:
        return 1 if s > 0 else -1
    return 1 if t > 0 else -1


def _no_order(self, other):
    raise TypeError(f"{type(self).__name__} has no tuple order or tuple arithmetic; use sign()")


class QuadExt(NamedTuple):
    """(s + t*sqrt(d))/r in canonical form: gcd(s,t,r)=1, r>0, d squarefree."""

    s: int
    t: int
    r: int
    d: int

    @staticmethod
    def make(s: int, t: int, r: int, d: int) -> "QuadExt":
        """Validating entry point for outside input: d becomes its squarefree part."""
        if r == 0:
            raise QFieldError("zero denominator")
        if d <= 1 or isqrt(d) ** 2 == d:
            raise QFieldError("d must be a positive nonsquare")
        td, dd = squarefree_decompose(d)
        return QuadExt._reduce(s, t * td, r, dd)

    @staticmethod
    def _reduce(s: int, t: int, r: int, d: int) -> "QuadExt":
        """Canonical form in a field whose radicand d is already squarefree."""
        if r < 0:
            s, t, r = -s, -t, -r
        g = gcd(r, s, t)  # the small denominator first keeps this linear in bits
        return QuadExt(s // g, t // g, r // g, d)

    def _coerce(self, other) -> "QuadExt":
        """other as an element of this field: an element with the same d."""
        if not isinstance(other, QuadExt):
            raise TypeError(f"cannot combine QuadExt with {type(other).__name__}")
        if other.d != self.d:
            raise QFieldError(f"mixed radicands {self.d} and {other.d}")
        return other

    def __mul__(self, other) -> "QuadExt":
        o = self._coerce(other)
        return QuadExt._reduce(self.s * o.s + self.t * o.t * self.d,
                               self.s * o.t + self.t * o.s,
                               self.r * o.r, self.d)

    def sign(self, i: int = 0, j: int = 1) -> int:
        """Exact sign of i + j*self, of self by default (r > 0 does not affect it)."""
        return sign_of(i * self.r + j * self.s, j * self.t, self.d)

    __lt__ = __le__ = __gt__ = __ge__ = _no_order  # not the tuple order
    __add__ = __rmul__ = _no_order  # nor tuple concatenation and repetition

    def __repr__(self) -> str:
        return f"({self.s}+{self.t}*sqrt({self.d}))/{self.r}"


TAU_A_MAX = 1_000_000


def tau_from_a(a: int) -> QuadExt:
    """Positive fixed point of the periodic continued fraction [a; 1, a, 1, ...].

    It is the positive root of t^2 = a*t + a, namely (a + sqrt(a^2+4a))/2,
    and satisfies tau > a.  a is capped at TAU_A_MAX: the squarefree part
    of a(a+4) comes from trial division, which takes time linear in a
    when a and a+4 are both prime.
    """
    if a <= 0:
        raise QFieldError("a must be a positive integer")
    if a > TAU_A_MAX:
        raise QFieldError(f"a <= {TAU_A_MAX} required (trial division of a(a+4)), got {a}")
    disc = a * a + 4 * a
    t, d = squarefree_decompose(disc)
    tau = QuadExt._reduce(a, t, 2, d)
    # r^2 (tau^2 - a*tau - a) = s^2 + t^2 d - a*r*(s + r) + t*(2s - a*r)*sqrt(d)
    s, t, r, _ = tau
    if s * s + t * t * d != a * r * (s + r) or 2 * s != a * r:
        raise CertificationError(f"tau = {tau!r} does not satisfy t^2 = {a}*t + {a}")
    return tau


def _quotient_stream(x: QuadExt) -> Iterator[int]:
    """The partial quotients of an irrational x, lazily.  x = (s + t*sqrt(d))/r
    is (P + sqrt(D))/Q for D = t^2 d r^2, P = w*s*r, Q = w*r^2 and w = sign(t)."""
    s, t, r, d = x
    if t == 0:
        raise QFieldError("continued fractions require an irrational input")
    w = 1 if t > 0 else -1
    return _pq_quotients(w * s * r, w * r * r, t * t * d * r * r)


def _pq_quotients(p: int, q: int, dd: int) -> Iterator[int]:
    """The quotients a = floor((P + sqrt(D))/Q) of the (P, Q) recurrence
    P <- a*Q - P, Q <- (D - P^2)/Q (Cohen, GTM 138, 5.7).  D is not a
    square, so a comes from isqrt(D).  Q divides D - P^2 at the start, and the
    recurrence keeps that; a walk that reads a wrong quotient fails `_along`."""
    root = isqrt(dd)
    while True:
        a = (p + root + (q < 0)) // q  # for Q < 0: -floor((P + sqrt D)/|Q|) - 1
        yield a
        p = a * q - p
        q = (dd - p * p) // q
