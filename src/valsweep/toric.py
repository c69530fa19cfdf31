"""Integer lattice and cone computations.

Determinants, adjugates and Smith normal forms of integer matrices, plus
2D dual cones, Hilbert bases and the regularity test for the invariant
(semigroup) ring attached to a 2x2 exponent matrix.  Everything is exact;
matrices are numpy object arrays holding Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np


class ToricError(ValueError):
    pass


def as_int_matrix(a) -> np.ndarray:
    m = np.array(a, dtype=object)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ToricError(f"expected a square matrix, got shape {m.shape}")
    return m


def det_int(a) -> int:
    """Exact determinant by cofactor expansion (small n only)."""
    m = as_int_matrix(a)
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0
    sign = 1
    for k in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), k, axis=1)
        total += sign * m[0, k] * det_int(minor)
        sign = -sign
    return total


def adjugate(a) -> np.ndarray:
    """adj(A) with A @ adj(A) = det(A) * I."""
    m = as_int_matrix(a)
    n = m.shape[0]
    if n == 1:
        return np.array([[1]], dtype=object)
    adj = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * det_int(minor)
    return adj


@dataclass
class SmithForm:
    """U @ A @ V = D with U, V unimodular and D = diag(d_1 | d_2 | ...)."""

    u: np.ndarray
    d: np.ndarray
    v: np.ndarray

    def diagonal(self) -> list[int]:
        return [self.d[i, i] for i in range(self.d.shape[0])]

    def quotient_invariants(self) -> list[int]:
        """Cyclic factors of Z^n / A Z^n, dropping trivial ones."""
        return [x for x in self.diagonal() if x != 1]


def smith_normal_form(a) -> SmithForm:
    m = as_int_matrix(a).copy()
    n = m.shape[0]
    u = np.eye(n, dtype=object)
    v = np.eye(n, dtype=object)

    def swap_rows(i, j):
        m[[i, j]] = m[[j, i]]
        u[[i, j]] = u[[j, i]]

    def swap_cols(i, j):
        m[:, [i, j]] = m[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]

    for k in range(n):
        while True:
            # move a nonzero pivot of least magnitude to (k, k)
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    if m[i, j] != 0 and (best is None or abs(m[i, j]) < abs(m[best[0], best[1]])):
                        best = (i, j)
            if best is None:
                break
            swap_rows(k, best[0])
            swap_cols(k, best[1])
            done = True
            for i in range(k + 1, n):
                q = m[i, k] // m[k, k]
                if q != 0:
                    m[i] -= q * m[k]
                    u[i] -= q * u[k]
                if m[i, k] != 0:
                    done = False
            for j in range(k + 1, n):
                q = m[k, j] // m[k, k]
                if q != 0:
                    m[:, j] -= q * m[:, k]
                    v[:, j] -= q * v[:, k]
                if m[k, j] != 0:
                    done = False
            if not done:
                continue
            # enforce divisibility: fold any non-multiple into column k
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if m[i, j] % m[k, k] != 0:
                        offender = j
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[:, k] += m[:, offender]
            v[:, k] += v[:, offender]
        if m[k, k] < 0:
            m[k] = -m[k]
            u[k] = -u[k]
    form = SmithForm(u, m, v)
    assert np.array_equal(u @ as_int_matrix(a) @ v, m)
    assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1
    diag = form.diagonal()
    for x, y in zip(diag, diag[1:]):
        assert y == 0 or (x != 0 and y % x == 0)
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
    positively against the other.
    """
    r1, r2 = rows
    if r1[0] * r2[1] - r1[1] * r2[0] == 0:
        raise ToricError("rows are linearly dependent")

    def perp_ray(ortho_to: Vec2, positive_on: Vec2) -> Vec2:
        cand = primitive((-ortho_to[1], ortho_to[0]))
        pairing = cand[0] * positive_on[0] + cand[1] * positive_on[1]
        if pairing < 0:
            cand = (-cand[0], -cand[1])
        return cand

    return (perp_ray(r2, r1), perp_ray(r1, r2))


def hirzebruch_jung_digits(a: int, b: int) -> list[int]:
    """Digits c_i of a/b = c_1 - 1/(c_2 - 1/(...)), for 0 <= b <= a (none if b = 0)."""
    digits = []
    while b > 0:
        c = -(-a // b)  # ceil
        digits.append(c)
        a, b = b, c * b - a
    return digits


def _bezout(x: int, y: int) -> tuple[int, int]:
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


@dataclass(frozen=True)
class SemigroupBasis:
    """Minimal generators of the lattice-point semigroup of a 2D cone."""

    generators: tuple[Vec2, ...]
    rays: tuple[Vec2, Vec2]

    def __len__(self) -> int:
        return len(self.generators)


def hilbert_basis_2d(rays: tuple[Vec2, Vec2]) -> SemigroupBasis:
    """Minimal generating set of cone(rays) ∩ Z^2, by Hirzebruch-Jung.

    With u1, u2 the primitive rays, D = |det(u1, u2)| and (s, t) a Bezout
    pair of u1, the unimodular map u1 -> (0, 1) sends u2 to (D, -k) up to
    a shear fixing (0, 1), where k = -(s, t).u2 mod D.  The basis is then
    the chain v_0 = u1, v_1 = (k*u1 + u2)/D, v_{i+1} = c_i*v_i - v_{i-1}
    over the digits c_i of D/k (Fulton, Introduction to Toric Varieties,
    2.6), so it costs time linear in its size.

    The chain is certified rather than trusted: every digit must be at
    least 2 (no generator is the sum of its neighbours), every
    consecutive pair must be a lattice basis oriented like (u1, u2), and
    the chain must end exactly at u2.  Together these make the v_i the
    lattice points on the boundary of the convex hull of the nonzero
    cone points, which is the Hilbert basis.
    """
    u1, u2 = primitive(rays[0]), primitive(rays[1])
    d = u1[0] * u2[1] - u1[1] * u2[0]
    if d == 0:
        raise ToricError("cone is not strictly convex (parallel rays)")
    dd, orientation = abs(d), (1 if d > 0 else -1)
    s, t = _bezout(*u1)
    k = -(s * u2[0] + t * u2[1]) % dd
    chain = [u1, ((k * u1[0] + u2[0]) // dd, (k * u1[1] + u2[1]) // dd)]
    for c in hirzebruch_jung_digits(dd, k):
        if c < 2:
            raise AssertionError(f"Hirzebruch-Jung digit {c} < 2 for D={dd}, k={k}")
        (x0, y0), (x1, y1) = chain[-2], chain[-1]
        chain.append((c * x1 - x0, c * y1 - y0))
    if chain[-1] != u2:
        raise AssertionError(f"Hirzebruch-Jung chain ends at {chain[-1]}, not at {u2}")
    for (x0, y0), (x1, y1) in zip(chain, chain[1:]):
        if x0 * y1 - y0 * x1 != orientation:
            raise AssertionError(f"generators {(x0, y0)}, {(x1, y1)} are not a "
                                 f"lattice basis oriented like the rays")
    return SemigroupBasis(tuple(sorted(chain)), (u1, u2))


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    embedding_dim: int
    det: int

    @property
    def label(self) -> str:
        return "Regular" if self.regular else "Singular"


def below_ring_regularity(a) -> RegularityVerdict:
    """Regularity of the ring attached to the dual cone of A's rows.

    Regular iff the primitive-row matrix has determinant +-1; the
    embedding dimension is the Hilbert-basis size of the dual semigroup.
    The two criteria must agree (r = 2 iff regular).
    """
    m = as_int_matrix(a)
    if m.shape != (2, 2):
        raise ToricError("expected a 2x2 matrix")
    d = det_int(m)
    if d == 0:
        raise ToricError("matrix is singular")
    rows = (primitive((m[0, 0], m[0, 1])), primitive((m[1, 0], m[1, 1])))
    prim_det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    rays = dual_cone_2d(rows)
    r = len(hilbert_basis_2d(rays))
    regular = abs(prim_det) == 1
    if regular != (r == 2):  # pragma: no cover - the two criteria are equivalent
        raise AssertionError("determinant and Hilbert-basis criteria disagree")
    return RegularityVerdict(regular, r, d)


@dataclass(frozen=True)
class PowerIdentityCertificate:
    """Witness that each adjugate row sends the parameters below onto a
    pure d-th power of a single parameter above."""

    det: int
    rows: tuple[tuple[int, ...], ...]


def adjugate_power_identity(a) -> PowerIdentityCertificate:
    """Certify adj(A) @ A = det(A) * I at the exponent level.

    Row i of the product is det(A) times the i-th unit vector: the
    monomial with exponents row_i(adj A) in the parameters below equals
    the det(A)-th power of the single parameter above indexed by i.
    """
    m = as_int_matrix(a)
    d = det_int(m)
    if d == 0:
        raise ToricError("matrix is singular")
    adj = adjugate(m)
    prod = adj @ m
    n = m.shape[0]
    rows = []
    for i in range(n):
        for j in range(n):
            expected = d if i == j else 0
            if prod[i, j] != expected:  # pragma: no cover - self-check path
                raise AssertionError(f"row {i} fails: entry {j} is {prod[i, j]}")
        rows.append(tuple(int(x) for x in adj[i]))
    return PowerIdentityCertificate(int(d), tuple(rows))
