"""Monomial valuations in two variables with values in (Z + Z*tau)/N.

A valuation is fixed by positive, rationally independent values on the
two parameters; on a polynomial it takes the minimum over the support,
which is attained at a unique monomial.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple

from .errors import ValuationError
from .qfield import QuadExt, _no_order


class NotASubgroupError(ValuationError):
    """Raised when the alleged subgroup generators do not lie in the supergroup."""


class ValueElement(NamedTuple):
    """(i + j*tau)/n, an element of the divisible hull of Z + Z*tau."""

    i: int
    j: int
    n: int
    tau: QuadExt

    @staticmethod
    def make(i: int, j: int, n: int, tau: QuadExt) -> "ValueElement":
        if n == 0:
            raise ValuationError("zero denominator")
        if tau.t == 0:
            raise ValuationError("tau must be irrational")
        if n < 0:
            i, j, n = -i, -j, -n
        g = gcd(n, i, j)  # the small denominator first keeps this linear in bits
        return ValueElement(i // g, j // g, n // g, tau)

    def as_quadext(self) -> QuadExt:
        t = self.tau
        return QuadExt._reduce(self.i * t.r + self.j * t.s, self.j * t.t,
                               self.n * t.r, t.d)

    def ratio(self, other: "ValueElement") -> QuadExt:
        """self / other for a nonzero other: as (a + b*sqrt(d))/(n*r) each, the
        numerator times the conjugate of other's numerator, over its norm."""
        self._check(other)
        if other.i == other.j == 0:
            raise ValuationError("division by a zero value")
        t = self.tau
        a1, b1 = self.i * t.r + self.j * t.s, self.j * t.t
        a2, b2 = other.i * t.r + other.j * t.s, other.j * t.t
        return QuadExt._reduce(other.n * (a1 * a2 - b1 * b2 * t.d),
                               other.n * (b1 * a2 - a1 * b2),
                               self.n * (a2 * a2 - b2 * b2 * t.d), t.d)

    def sign(self) -> int:
        return self.tau.sign(self.i, self.j)  # n > 0 leaves the sign of i + j*tau

    def _check(self, other: "ValueElement") -> None:
        if not isinstance(other, ValueElement):
            raise TypeError("expected a ValueElement")
        if other.tau != self.tau:
            raise ValuationError("mismatched ambient tau")

    def __add__(self, other: "ValueElement") -> "ValueElement":
        self._check(other)
        return ValueElement.make(self.i * other.n + other.i * self.n,
                                 self.j * other.n + other.j * self.n,
                                 self.n * other.n, self.tau)

    def __sub__(self, other: "ValueElement") -> "ValueElement":
        self._check(other)
        return ValueElement.make(self.i * other.n - other.i * self.n,
                                 self.j * other.n - other.j * self.n,
                                 self.n * other.n, self.tau)

    def scale(self, k: int) -> "ValueElement":
        if not isinstance(k, int):
            raise TypeError(f"cannot scale a ValueElement by {type(k).__name__}")
        return ValueElement.make(self.i * k, self.j * k, self.n, self.tau)

    __mul__ = __rmul__ = scale  # k * v is v scaled, not a repeated tuple

    def __lt__(self, other):
        return (self - other).sign() < 0

    __le__ = __gt__ = __ge__ = _no_order  # not the tuple order; value_of needs only <

    def __repr__(self) -> str:
        return f"({self.i}+{self.j}*tau)/{self.n}"


Monomial = tuple[int, int]


def check_support(support: Iterable[Monomial]) -> list[Monomial]:
    pairs = list(support)
    if not pairs:
        raise ValuationError("empty support")
    seen = set()
    for e_u, e_v in pairs:
        if e_u < 0 or e_v < 0:
            raise ValuationError(f"negative exponent in support: ({e_u},{e_v})")
        if (e_u, e_v) in seen:
            raise ValuationError(f"duplicate support point ({e_u},{e_v})")
        seen.add((e_u, e_v))
    return pairs


def _check_parameter_values(val_u: ValueElement, val_v: ValueElement) -> None:
    """Both values over the same tau, positive and rationally independent."""
    val_u._check(val_v)
    if val_u.sign() <= 0 or val_v.sign() <= 0:
        raise ValuationError("parameter values must be positive")
    # (i1,j1)/n1 and (i2,j2)/n2 are Q-dependent iff (i1,j1) and (i2,j2) are parallel
    if val_u.i * val_v.j - val_u.j * val_v.i == 0:
        raise ValuationError("parameter values are rationally dependent")


class MonomialValuation:
    """Valuation determined by exact values on the two parameters u, v.

    Rational independence of the two values is checked once here, so the
    minimum over any support is attained at a unique monomial.
    """

    def __init__(self, val_u: ValueElement, val_v: ValueElement):
        _check_parameter_values(val_u, val_v)
        self.val_u = val_u
        self.val_v = val_v

    def monomial_value(self, e_u: int, e_v: int) -> ValueElement:
        return self.val_u.scale(e_u) + self.val_v.scale(e_v)

    def value_of(self, support: Iterable[Monomial]) -> ValueElement:
        """min over the support; unique attainment is guaranteed."""
        return min(self.monomial_value(e_u, e_v) for e_u, e_v in check_support(support))


def group_index(sub_gens: tuple[ValueElement, ValueElement],
                super_gens: tuple[ValueElement, ValueElement]) -> int:
    """Index of the group generated by sub_gens inside the one from super_gens.

    Solves each sub generator as an integer combination of the super
    generators in (1, tau)-coordinates, by integer cross-multiplication;
    the index is |det| of the integer coefficient matrix.
    """
    s1, s2 = super_gens
    s1._check(s2)
    det = s1.i * s2.j - s1.j * s2.i  # det of the coordinates, times n1*n2
    if det == 0:
        raise ValuationError("supergroup generators are rationally dependent")
    rows = []
    for g in sub_gens:
        s1._check(g)
        # Cramer's rule on g = c1*s1 + c2*s2 with the denominators cleared
        num1 = s1.n * (g.i * s2.j - g.j * s2.i)
        num2 = s2.n * (s1.i * g.j - s1.j * g.i)
        den = g.n * det
        if num1 % den or num2 % den:
            raise NotASubgroupError(
                f"{g!r} is not an integer combination of the supergroup generators")
        rows.append((num1 // den, num2 // den))
    d = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if d == 0:
        raise ValuationError("subgroup generators are rationally dependent")
    return abs(d)
