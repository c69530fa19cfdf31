"""Cyclic diagonal actions on two formal variables.

A generator acts by x -> w^a x, y -> w^b y for a primitive root of unity
w of prime order.  The module computes the invariant-monomial generators,
the Jacobian-minor ramification witnesses, and the order of the local
fundamental group of the invariant ring.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import QuotientError
from .toric import hilbert_basis_2d


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1 if f == 2 else 2
    return True


ORDER_MAX = 100_000


class _ActionFields(NamedTuple):
    order: int
    a: int
    b: int


class DiagonalAction(_ActionFields):
    """Z_order acting by x -> w^a x, y -> w^b y, with prime order.

    The order is capped at ORDER_MAX, checked first: primality comes from
    trial division, and the weight map and the full invariant list hold
    order entries.
    """

    __slots__ = ()

    def __new__(cls, order: int, a: int, b: int) -> "DiagonalAction":
        if order > ORDER_MAX:
            raise QuotientError(f"order <= {ORDER_MAX} required (trial division, and "
                                f"lists of order entries), got {order}")
        if not is_prime(order):
            raise QuotientError(f"order {order} is not prime")
        if not (0 <= a < order and 0 <= b < order):
            raise QuotientError("weights must lie in [0, order)")
        if a == 0 and b == 0:
            raise QuotientError("trivial action is not faithful")
        return super().__new__(cls, order, a, b)

    def weight_map(self) -> dict[int, int]:
        """i -> j_i with b*j_i = a*i mod p and 0 < j_i < p, for a, b != 0."""
        p, a, b = self.order, self.a, self.b
        if a == 0 or b == 0:
            raise QuotientError("weight map needs both weights nonzero")
        b_inv = pow(b, -1, p)
        return {i: (a * i * b_inv) % p or p for i in range(1, p)}


Monomial = tuple[int, int]


def invariant_generators(action: DiagonalAction) -> tuple[list[Monomial], list[Monomial]]:
    """(full, minimal) generator sets of the invariant-monomial semigroup.

    With both weights nonzero the full set is
    {x^p, y^p} with x^{p-i} y^{j_i} for 1 <= i <= p-1; with one weight
    zero the invariant ring is regular with two generators.  The minimal
    set is the Hilbert basis of the invariant lattice {(i, j) : j = r*i
    mod p}, r = -a/b mod p, in the first quadrant (Riemenschneider 1974):
    in the lattice basis (1, r), (0, p) that quadrant is the cyclic
    quotient cone spanned by (0, 1) and (p, -r).
    """
    p, a, b = action.order, action.a, action.b
    if a == 0 or b == 0:
        full = sorted([(1, 0), (0, p)] if a == 0 else [(p, 0), (0, 1)])
        return full, list(full)
    jmap = action.weight_map()
    full = sorted([(p, 0)] + [(p - i, jmap[i]) for i in range(1, p)] + [(0, p)])
    r = (-a * pow(b, -1, p)) % p
    basis = hilbert_basis_2d(((0, 1), (p, -r)))
    return full, sorted((c1, r * c1 + p * c2) for c1, c2 in basis.generators)


class RamificationWitness(NamedTuple):
    """The two Jacobian 2x2 minors that are pure powers: coefficient p
    times y^(p-1+j_{p-1}) and p times x^(2p-1-i_1)."""

    coefficient: int
    y_witness: Monomial
    x_witness: Monomial


def ramification_minors(action: DiagonalAction) -> RamificationWitness:
    """Witness minors certifying the branch locus is the closed point.

    Both witnesses are nonzero pure powers (the coefficient p is a unit in
    any allowed characteristic), so the radical of the minor ideal is
    (x, y) and the quotient map is unramified away from it.
    """
    p, a, b = action.order, action.a, action.b
    if a == 0 or b == 0:
        raise QuotientError("ramification witnesses need both weights nonzero")
    # j_i = a*i/b mod p, so j_{p-1} = -a/b and j_i = 1 at i = b/a
    return RamificationWitness(coefficient=p,
                               y_witness=(0, p - 1 + (-a * pow(b, -1, p) % p)),
                               x_witness=(2 * p - 1 - (b * pow(a, -1, p) % p), 0))


def pi1_order(action: DiagonalAction) -> int:
    """Order of the local fundamental group of the invariant ring:
    1 when the ring is regular (a weight is zero), the group order otherwise."""
    return 1 if action.a == 0 or action.b == 0 else action.order
