"""Integer lattice and cone computations.

Determinants and Smith normal forms of integer matrices, plus
2D dual cones, Hilbert bases and the regularity test for the invariant
(semigroup) ring attached to a 2x2 exponent matrix.  Everything is exact;
matrices are tuples of integer rows.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import CertificationError, ToricError


Matrix = tuple[tuple[int, ...], ...]


def _minor(m: Matrix, i: int, j: int) -> Matrix:
    """m without row i and column j."""
    return tuple(row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i)


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def det_int(m: Matrix) -> int:
    """Exact determinant of a nonempty square matrix by cofactor expansion (small n only)."""
    if len(m) == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** k * m[0][k] * det_int(_minor(m, 0, k)) for k in range(len(m)))


class SmithForm(NamedTuple):
    """U A V = D with U, V unimodular and D = diag(d_1 | d_2 | ...)."""

    u: Matrix
    d: Matrix
    v: Matrix

    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(len(self.d))]

    def quotient_invariants(self) -> list[int]:
        """Cyclic factors of Z^n / A Z^n, dropping trivial ones."""
        return [x for x in self.diagonal() if x != 1]


def _smith_reduce(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(U, D, V) by elementary row and column operations (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4); smith_normal_form checks them."""
    n = len(a)
    m = [list(row) for row in a]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        while True:
            # move a nonzero pivot of least magnitude to (k, k)
            nonzero = [(abs(m[i][j]), i, j) for i in range(k, n) for j in range(k, n) if m[i][j]]
            if not nonzero:
                break
            _, i, j = min(nonzero)  # the first least entry in row-major order
            m[k], m[i] = m[i], m[k]
            u[k], u[i] = u[i], u[k]
            for row in m + v:
                row[k], row[j] = row[j], row[k]
            done = True
            for i in range(k + 1, n):
                q = m[i][k] // m[k][k]
                if q != 0:
                    m[i] = [x - q * y for x, y in zip(m[i], m[k])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[k])]
                if m[i][k] != 0:
                    done = False
            for j in range(k + 1, n):
                q = m[k][j] // m[k][k]
                if q != 0:
                    for row in m + v:  # column j -= q * column k
                        row[j] -= q * row[k]
                if m[k][j] != 0:
                    done = False
            if not done:
                continue
            # enforce divisibility: fold any non-multiple into column k
            offender = next((j for i in range(k + 1, n) for j in range(k + 1, n)
                             if m[i][j] % m[k][k] != 0), None)
            if offender is None:
                break
            for row in m + v:
                row[k] += row[offender]
        if m[k][k] < 0:
            m[k] = [-x for x in m[k]]
            u[k] = [-x for x in u[k]]
    return tuple(map(tuple, u)), tuple(map(tuple, m)), tuple(map(tuple, v))


SNF_N_MAX = 6


def smith_normal_form(a: Matrix) -> SmithForm:
    """Smith normal form with its certificate: U A V = D for unimodular U
    and V, and D diagonal with each entry dividing the next.  The rows of
    the nonempty square A are taken as given.

    n is capped at SNF_N_MAX: the unimodularity check takes cofactor
    determinants, whose cost grows as n!.
    """
    if len(a) > SNF_N_MAX:
        raise ToricError(f"n <= {SNF_N_MAX} required (cofactor determinants), "
                         f"got a {len(a)}x{len(a)} matrix")
    u, d, v = _smith_reduce(a)
    n = len(a)
    if _matmul(_matmul(u, a), v) != d or any(d[i][j] for i in range(n) for j in range(n) if i != j):
        raise CertificationError(f"Smith certificate fails: U A V != D = {d}")
    if abs(det_int(u)) != 1 or abs(det_int(v)) != 1:
        raise CertificationError("Smith certificate fails: U or V is not unimodular")
    form = SmithForm(u, d, v)
    diag = form.diagonal()
    for x, y in zip(diag, diag[1:]):
        if not (y == 0 or (x != 0 and y % x == 0)):
            raise CertificationError(f"Smith certificate fails: {x} does not divide {y}")
    return form


Vec2 = tuple[int, int]


def primitive(vec: Vec2) -> Vec2:
    g = gcd(vec[0], vec[1])
    if g == 0:
        raise ToricError("zero vector has no primitive representative")
    return (vec[0] // g, vec[1] // g)


def dual_cone_2d(rows: tuple[Vec2, Vec2]) -> tuple[Vec2, Vec2]:
    """Primitive ray generators of {m : <m, row_i> >= 0 for both rows}.

    Each returned ray pairs to zero against one row and strictly
    positively against the other.  The rows must be independent.
    """
    r1, r2 = rows

    def perp_ray(ortho_to: Vec2, positive_on: Vec2) -> Vec2:
        cand = primitive((-ortho_to[1], ortho_to[0]))
        pairing = cand[0] * positive_on[0] + cand[1] * positive_on[1]
        if pairing < 0:
            cand = (-cand[0], -cand[1])
        return cand

    return (perp_ray(r2, r1), perp_ray(r1, r2))


def _bezout(x: int, y: int) -> tuple[int, int]:
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def _hj_offset(u1: Vec2, u2: Vec2, dd: int) -> int:
    """k = -(s, t).u2 mod D for any (s, t) with s*u1[0] + t*u1[1] = 1 mod D.

    Two such pairs differ by a multiple of (-u1[1], u1[0]), which pairs
    with u2 to +-D, plus a vector in D*Z^2, so they give the same k.  The
    extended gcd therefore runs on u1 mod D, in O(log D) steps whatever
    the size of the entries (Cohen, A Course in Computational Algebraic
    Number Theory, 1.3); its gcd g is a unit mod D because u1 is primitive.
    """
    a, b = u1[0] % dd, u1[1] % dd
    s, t = _bezout(a, b)
    return -(s * u2[0] + t * u2[1]) * pow(s * a + t * b, -1, dd) % dd


class SemigroupBasis(NamedTuple):
    """Minimal generators of the lattice-point semigroup of a 2D cone."""

    generators: tuple[Vec2, ...]
    rays: tuple[Vec2, Vec2]


# `hilbert_basis_2d` lists one vector per generator, at most CHAIN_MAX.  That
# admits every quotient of order at most quotient.ORDER_MAX (at most |det| + 1
# vectors) and the 1,000,001 generators of cone((1, 0), (1, 10^6)).
CHAIN_MAX = 2 ** 20


def _hj_runs(dd: int, k: int) -> list[tuple[int, int]]:
    """The Hirzebruch-Jung digits of dd/k as runs (c, t): a digit c, then
    t - 1 twos.  With dd/k = [a_1; a_2, ..., a_2m] (an even number of terms:
    each odd one is the floor of (dd - 1)/k, so the last may be 1), the
    runs are (a_1 + 1, a_2), (a_3 + 2, a_4), ... (Riemenschneider's point
    diagram)."""
    runs = []
    while k:
        a = (dd - 1) // k
        dd -= a * k
        b, k = divmod(k, dd)
        runs.append((a + (2 if runs else 1), b))
    return runs


def _hj_chain(u1: Vec2, u2: Vec2) -> list[tuple[Vec2, Vec2, int]]:
    """The certified Hirzebruch-Jung chain from primitive u1 to primitive u2,
    as segments (v, w, t) that list v + j*w for 0 <= j < t in turn.

    With D = |det(u1, u2)|, a unimodular map u1 -> (0, 1) sends u2 to
    (D, -k) up to a shear fixing (0, 1), with k from `_hj_offset`.  The
    chain is v_0 = u1, v_1 = (k*u1 + u2)/D, v_{i+1} = c_i*v_i - v_{i-1}
    over the digits c_i of D/k (Fulton, Introduction to Toric Varieties,
    2.6).  A run (c, t) of `_hj_runs` steps t times by w = (c - 1)*v_i -
    v_{i-1}, so the chain takes O(log D) steps whatever its length.

    The chain is certified rather than trusted: (v_0, v_1) must be a
    lattice basis oriented like (u1, u2), which the recurrence keeps for
    every later pair; every run must hold a digit, each at least 2 (no
    generator is the sum of its neighbours); and the chain must end
    exactly at u2.  Together these make the v_i the lattice points on the
    boundary of the convex hull of the nonzero cone points, which is the
    Hilbert basis of cone(u1, u2).
    """
    d = u1[0] * u2[1] - u1[1] * u2[0]
    if d == 0:
        raise ToricError("cone is not strictly convex (parallel rays)")
    dd = abs(d)
    k = _hj_offset(u1, u2, dd)
    (x0, y0), (x1, y1) = u1, ((k * u1[0] + u2[0]) // dd, (k * u1[1] + u2[1]) // dd)
    if x0 * y1 - y0 * x1 != (1 if d > 0 else -1):
        raise CertificationError(f"generators {u1}, {(x1, y1)} are not a lattice basis "
                                 f"oriented like the rays")
    segments = [(u1, (x1 - x0, y1 - y0), 2)]
    for c, t in _hj_runs(dd, k):
        if c < 2 or t < 1:
            raise CertificationError(f"Hirzebruch-Jung run ({c}, {t}) for D={dd}, k={k} "
                                     f"has a digit below 2 or none")
        dx, dy = (c - 1) * x1 - x0, (c - 1) * y1 - y0
        segments.append(((x1 + dx, y1 + dy), (dx, dy), t))
        x0, y0, x1, y1 = x1 + (t - 1) * dx, y1 + (t - 1) * dy, x1 + t * dx, y1 + t * dy
    if (x1, y1) != u2:
        raise CertificationError(f"Hirzebruch-Jung chain ends at {(x1, y1)}, not at {u2}")
    return segments


def hilbert_basis_2d(rays: tuple[Vec2, Vec2]) -> SemigroupBasis:
    """Minimal generating set of cone(rays) ∩ Z^2: the certified
    Hirzebruch-Jung chain between the primitive rays, listed and sorted."""
    u1, u2 = primitive(rays[0]), primitive(rays[1])
    segments = _hj_chain(u1, u2)
    if sum(t for *_, t in segments) > CHAIN_MAX:
        raise ToricError(f"Hirzebruch-Jung chain length <= {CHAIN_MAX} required "
                         f"(one vector per generator)")
    chain = [(x + j * dx, y + j * dy) for (x, y), (dx, dy), t in segments for j in range(t)]
    return SemigroupBasis(tuple(sorted(chain)), (u1, u2))


class RegularityVerdict(NamedTuple):
    regular: bool
    embedding_dim: int
    det: int


def below_ring_regularity(a) -> RegularityVerdict:
    """Regularity of the ring attached to the dual cone of A's rows.

    Regular iff the primitive-row matrix has determinant +-1; the
    embedding dimension r is the Hilbert-basis size of the dual semigroup,
    counted off the segments of the chain between the dual rays in
    O(log |det|), with no cap.  The two criteria must agree (r = 2 iff regular).
    """
    (a11, a12), (a21, a22) = a
    d = a11 * a22 - a12 * a21
    if d == 0:
        raise ToricError("matrix is singular")
    r = sum(t for *_, t in _hj_chain(*dual_cone_2d(((a11, a12), (a21, a22)))))
    regular = abs(d) == gcd(a11, a12) * gcd(a21, a22)
    if regular != (r == 2):
        raise CertificationError("determinant and Hilbert-basis criteria disagree")
    return RegularityVerdict(regular, r, d)
