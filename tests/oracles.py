"""Independent oracles for the lattice, semigroup, quotient, transform and
valuation computations.

These are the enumeration, search and second-route derivations that
production code replaced with one route each.  None shares logic with
the route it checks, so tests compare the two:

- `enumerated_hilbert_basis` against `toric.hilbert_basis_2d`;
- `hirzebruch_jung_digits`, the ceiling expansion of D/k, against the
  runs that `toric._hj_runs` reads off the regular continued fraction;
- `filtered_minimal_generators` (a `semigroup_contains` filtering of the
  full invariant list) against the minimal set of
  `quotient.invariant_generators`;
- `brute_force_invariants`, which tests invariance with the congruence of
  `is_invariant`, against the invariant generators;
- `adjugate_diagonal_action`, which reads the weights off adj(A) at the
  quotient generator adj(U) det(U) e_2, against
  `counterexample.derive_diagonal_action`, which reads them off V of the
  same certified Smith form U A V = D;
- `adjugate`, by cofactors, against `smith_adjugate`, which reads
  adj(A) = det(A) V D^-1 U off the certified Smith form, the route of
  `counterexample.derive_diagonal_action`;
- `scanned_ramification_minors`, which finds i_1 and j_{p-1} by scanning
  congruences, against the closed form of `quotient.ramification_minors`;
- `bracketed_quotients`, the partial quotients of a quadratic irrational
  that the continued fractions (by sympy) of two rationals bracketing it
  share, against the (P, Q) recurrence of `qfield`;
- `convergent_parameters`, the matrix of two consecutive convergents of
  tau by the three-term recurrence on the bracketed quotients, against
  the matrix that `transform.branch_runs` reaches from the identity at
  the end of each run;
- `value_steps`, the transform sequence with each step decided by the
  exact sign of the difference of the two values, against
  `transform.run_sequence` and `transform.branch_steps`, which read the
  steps off the partial quotients of the value ratio; `step_labels` names
  its states as the `transform` report does, by the value that dropped;
- `parameter_values`, sign(det A) adj(A) (tau, 1) by cofactors and sympy,
  against `transform._along`, the sign test of the walks;
- `series_value`, the value of a degree-ordered monomial stream cut off
  by a degree bound, against `MonomialValuation.value_of` on finite
  supports.

`exact` gives a `QuadExt` or a `ValueElement` as a sympy number, so tests
state field facts (tau^2 = a*tau + a, 0 < epsilon < 1, signs, ratios)
without valsweep's arithmetic.  No oracle imports `valsweep.qfield`; they
read the s, t, r and d fields of a `QuadExt` they are given.

`matmul` checks the Smith and adjugate certificates without the
production `toric._matmul`.  `cofactor_det` checks the closed-form 2x2
determinant of `toric.below_ring_regularity`.  `full_size_offset` derives
the Hirzebruch-Jung offset k from a Bezout pair of the full-size ray,
against which `toric._hj_offset`, which works on residues mod D, is
compared.
"""

from __future__ import annotations

from itertools import islice, takewhile
from math import isqrt, prod
from typing import Iterable

from valsweep.counterexample import ConfigError
from valsweep.errors import CertificationError, ValuationError
from valsweep.quotient import DiagonalAction, RamificationWitness
from valsweep.toric import (SemigroupBasis, ToricError, det_int, dual_cone_2d, primitive,
                            smith_normal_form)
from valsweep.valuation import MonomialValuation, ValueElement

Vec2 = tuple[int, int]


def matmul(a, b) -> list[list[int]]:
    """Product of two integer matrices given as row lists, by index loops."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for k in range(inner):
                out[i][j] += a[i][k] * b[k][j]
    return out


def cofactor_det(a) -> int:
    """Determinant by cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** k * a[0][k] * cofactor_det([row[:k] + row[k + 1:] for row in a[1:]])
               for k in range(len(a)))


def adjugate(a) -> tuple[tuple[int, ...], ...]:
    """adj(A) by cofactors: entry (i, j) is (-1)^(i+j) times the minor of A
    without row j and column i."""
    n = len(a)
    if n == 1:
        return ((1,),)
    return tuple(tuple((-1) ** (i + j) * cofactor_det(
        [row[:i] + row[i + 1:] for k, row in enumerate(a) if k != j]) for j in range(n))
        for i in range(n))


def smith_adjugate(a) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det A, adj A) read off the certified Smith form U A V = D: det A is
    det(U) det(V) det(D), since det U and det V are +-1, and adj A =
    det(A) A^-1 = V diag(det(A)/d_i) U, integral because each d_i divides
    det D."""
    form = smith_normal_form(a)
    diag = form.diagonal()
    det = det_int(form.u) * det_int(form.v) * prod(diag)
    if det == 0:
        raise ToricError("matrix is singular")
    scaled_u = [[det // d * x for x in row] for d, row in zip(diag, form.u)]
    return det, tuple(tuple(row) for row in matmul(form.v, scaled_u))


def full_size_offset(u1: Vec2, u2: Vec2) -> int:
    """k = -(s, t).u2 mod D for the exact Bezout pair s*u1[0] + t*u1[1] = 1
    of a primitive u1, with D = |det(u1, u2)|.  The pair comes from an
    extended gcd on the full-size entries that keeps each remainder r as a
    row (r, s, t) with r = s*u1[0] + t*u1[1]."""
    row, after = (u1[0], 1, 0), (u1[1], 0, 1)
    while after[0]:
        q = row[0] // after[0]
        row, after = after, tuple(x - q * y for x, y in zip(row, after))
    _, s, t = row if row[0] > 0 else (-x for x in row)
    if s * u1[0] + t * u1[1] != 1:
        raise ToricError(f"{u1} is not primitive")
    return -(s * u2[0] + t * u2[1]) % abs(u1[0] * u2[1] - u1[1] * u2[0])


def hirzebruch_jung_digits(a: int, b: int) -> list[int]:
    """Digits c_i of a/b = c_1 - 1/(c_2 - 1/(...)), for 0 <= b <= a (none if b = 0)."""
    digits = []
    while b > 0:
        c = -(-a // b)  # ceil
        digits.append(c)
        a, b = b, c * b - a
    return digits


def in_cone(point: Vec2, u1: Vec2, u2: Vec2) -> bool:
    """Membership in cone(u1, u2), decided by two cross-product signs."""
    d = u1[0] * u2[1] - u1[1] * u2[0]
    alpha = point[0] * u2[1] - point[1] * u2[0]
    beta = u1[0] * point[1] - u1[1] * point[0]
    if d < 0:
        alpha, beta = -alpha, -beta
    return alpha >= 0 and beta >= 0


def enumerated_hilbert_basis(rays: tuple[Vec2, Vec2]) -> SemigroupBasis:
    """Hilbert basis of cone(rays) from the (|det| + 1)^2 points of the
    fundamental parallelogram, filtered pairwise for irreducibility."""
    u1, u2 = primitive(rays[0]), primitive(rays[1])
    d = u1[0] * u2[1] - u1[1] * u2[0]
    if d == 0:
        raise ToricError("cone is not strictly convex (parallel rays)")
    dd = abs(d)
    candidates = {u1, u2}
    for a in range(dd + 1):
        for b in range(dd + 1):
            px = a * u1[0] + b * u2[0]
            py = a * u1[1] + b * u2[1]
            if px % dd == 0 and py % dd == 0 and (a, b) != (0, 0):
                candidates.add((px // dd, py // dd))
    basis = []
    for p in candidates:
        reducible = False
        for q in candidates:
            if q == p:
                continue
            diff = (p[0] - q[0], p[1] - q[1])
            if diff != (0, 0) and in_cone(diff, u1, u2):
                reducible = True
                break
        if not reducible:
            basis.append(p)
    return SemigroupBasis(tuple(sorted(basis)), (u1, u2))


def _extreme_rays(gens: tuple[Vec2, ...]) -> tuple[Vec2, Vec2]:
    """The pair of generators spanning the cone containing all the others."""
    for u1 in gens:
        for u2 in gens:
            if u1[0] * u2[1] - u1[1] * u2[0] == 0:
                continue
            if all(in_cone(g, u1, u2) for g in gens):
                return u1, u2
    raise ToricError("generators do not span a strictly convex 2D cone")


def _ray_semigroup_contains(gens: tuple[Vec2, ...], point: Vec2) -> bool:
    prim = primitive(gens[0])
    if point[0] * prim[1] - point[1] * prim[0] != 0:
        return False
    scale = point[0] // prim[0] if prim[0] != 0 else point[1] // prim[1]
    if scale <= 0 or (prim[0] * scale, prim[1] * scale) != point:
        return False
    lengths = sorted({g[0] // prim[0] if prim[0] != 0 else g[1] // prim[1] for g in gens})
    if any(l <= 0 for l in lengths):
        return False
    reachable = {0}
    for n in range(1, scale + 1):
        if any(n - l in reachable for l in lengths):
            reachable.add(n)
    return scale in reachable


def semigroup_contains(gens: tuple[Vec2, ...], point: Vec2) -> bool:
    """Bounded search: is point a nonnegative integer combination of gens?

    The search is confined to the cone spanned by the generators and
    graded by a functional strictly positive there, so it terminates.
    """
    if point == (0, 0):
        return True
    if all(g[0] * gens[0][1] - g[1] * gens[0][0] == 0 for g in gens):
        # degenerate rank-1 case: combinations live on a half-line
        return _ray_semigroup_contains(gens, point)
    u1, u2 = _extreme_rays(gens)
    d1, d2 = dual_cone_2d((u1, u2))
    phi = (d1[0] + d2[0], d1[1] + d2[1])
    memo: dict[Vec2, bool] = {}

    def rec(p: Vec2) -> bool:
        if p == (0, 0):
            return True
        if p in memo:
            return memo[p]
        memo[p] = False
        for g in gens:
            diff = (p[0] - g[0], p[1] - g[1])
            if not in_cone(diff, u1, u2):
                continue
            if phi[0] * diff[0] + phi[1] * diff[1] >= phi[0] * p[0] + phi[1] * p[1]:
                continue
            if rec(diff):
                memo[p] = True
                return True
        return memo[p]

    return rec(point)


def filtered_minimal_generators(full: list[Vec2]) -> list[Vec2]:
    """Drop from `full` every element that is a sum of the others."""
    minimal = list(full)
    changed = True
    while changed:
        changed = False
        for g in list(minimal):
            rest = tuple(h for h in minimal if h != g)
            if len(rest) >= 1 and semigroup_contains(rest, g):
                minimal.remove(g)
                changed = True
    return sorted(minimal)


def is_invariant(action: DiagonalAction, e_x: int, e_y: int) -> bool:
    """x^e_x y^e_y is fixed by the action: a*e_x + b*e_y = 0 mod p."""
    p, a, b = action
    return (a * e_x + b * e_y) % p == 0


def brute_force_invariants(action: DiagonalAction, max_degree: int) -> list[Vec2]:
    """All invariant monomials x^i y^j of total degree in (0, max_degree]."""
    return sorted((i, j) for i in range(max_degree + 1) for j in range(max_degree + 1 - i)
                  if i + j > 0 and is_invariant(action, i, j))


def adjugate_diagonal_action(matrix) -> DiagonalAction:
    """The cyclic action of Z^2 / A Z^2 for a 2x2 A: the generator U^-1 e_2
    of the quotient is column 2 of adj(U) det(U), and the weights are
    adj(A) times it, mod |det A|."""
    d = abs(cofactor_det(matrix))
    form = smith_normal_form(matrix)
    invariants = form.quotient_invariants()
    if d == 0 or invariants != [d]:
        raise ConfigError("cyclic quotient", f"quotient invariants {invariants} not cyclic")
    (u11, u12), (u21, u22) = form.u
    u_det = u11 * u22 - u12 * u21
    g1, g2 = -u12 * u_det, u11 * u_det
    (a11, a12), (a21, a22) = matrix
    return DiagonalAction(d, (a22 * g1 - a12 * g2) % d, (a11 * g2 - a21 * g1) % d)


def scanned_ramification_minors(action: DiagonalAction) -> RamificationWitness:
    """The witnesses from the invariants x^(p-i) y^(j_i), b*j_i = a*i mod p:
    i_1 and j_{p-1} found by scanning 0..p-1 for the congruence."""
    p, a, b = action
    i_1 = [a * i % p for i in range(p)].index(b)
    j_last = [b * j % p for j in range(p)].index(a * (p - 1) % p)
    return RamificationWitness(p, (0, p - 1 + j_last), (2 * p - 1 - i_1, 0))


def exact(x):
    """x as an exact sympy number: (s + t*sqrt(d))/r for a QuadExt, and
    (i + j*tau)/n for a ValueElement."""
    import sympy  # here, not at the top: subprocess tests import the test modules
    if isinstance(x, ValueElement):
        return (x.i + x.j * exact(x.tau)) / sympy.Integer(x.n)
    return (x.s + x.t * sympy.sqrt(x.d)) / sympy.Integer(x.r)


def parameter_values(matrix, tau) -> tuple:
    """The values of the current parameters of exponent matrix A when u and v
    have values tau and 1, up to the positive factor 1/|det A|, as exact sympy
    numbers: sign(det A) adj(A) (tau, 1), with adj(A) and det A by cofactors.
    Both are positive exactly on a walk along the valuation."""
    import sympy
    rows = [list(row) for row in matrix]
    (p, q), (r, s) = adjugate(rows)
    w, t = sympy.sign(cofactor_det(rows)), exact(tau)
    return w * (p * t + q), w * (r * t + s)


def bracketed_quotients(x, count: int) -> list[int]:
    """The first `count` partial quotients of an irrational QuadExt
    x = (s + t*sqrt(d))/r, r > 0.  For M a power of 2 and R = isqrt(t^2 d M^2),
    |t|*sqrt(d)*M lies strictly between R and R + 1, as d is no square, which
    brackets x by two rationals.  A rational whose continued fraction goes on
    past a_k lies in the open interval of the numbers whose expansions begin
    a_0, ..., a_k, and so does all between two such: the quotients that the
    expansions (by sympy, lazily) of both ends share and go on past begin
    x's.  M is squared until there are `count` of them."""
    import sympy
    from sympy.ntheory.continued_fraction import continued_fraction_iterator
    s, t, r, d = x
    scale = 1 << 256
    while True:
        root = isqrt(t * t * d * scale * scale)
        ends = (root, root + 1) if t > 0 else (-root - 1, -root)
        low, high = (continued_fraction_iterator(sympy.Rational(s * scale + e, r * scale))
                     for e in ends)
        # count + 1 shared quotients: the first count go on past themselves
        pairs = takewhile(lambda pair: pair[0] == pair[1], zip(low, high))
        shared = [int(a) for a, _ in islice(pairs, count + 1)]
        if len(shared) > count:
            return shared[:count]
        scale *= scale


def convergent_parameters(tau, p: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Parameter exponents from two consecutive convergents f_p/g_p of tau.

    Returns M = [[g_p, g_{p-1}], [f_p, f_{p-1}]], the matrix expressing
    (u, v) in the parameters (u_1, v_1) when u has value 1 and v has value
    tau.  Certifies det M = +-1 and that both new parameter values are
    strictly positive, by sympy's exact signs.
    """
    if p < 1:
        raise ValuationError("need p >= 1 so two consecutive convergents exist")
    f0, g0, f1, g1 = 0, 1, 1, 0  # (f, g) at k = -2 and at k = -1
    for a in bracketed_quotients(tau, p + 1):
        f0, g0, f1, g1 = f1, g1, a * f1 + f0, a * g1 + g0
    eps = f0 * g1 - f1 * g0
    if eps not in (-1, 1):
        raise CertificationError(f"consecutive convergents have determinant {eps}, not +-1")
    # values of u_1, v_1 obtained by inverting M against (value u, value v) = (1, tau)
    t = exact(tau)
    if not ((f0 - g0 * t) * eps).is_positive or not ((g1 * t - f1) * eps).is_positive:
        raise CertificationError("convergent parameters produced a nonpositive value")
    return ((g1, g0), (f1, f0))


def arithmetic_step(state):
    """One quadratic transform decided on the values, through ValueElement
    arithmetic: the parameter of larger value is divided by the other, so
    its value drops by the other's and the other's column of A is added
    into its column.  state is (A, (vx, vy)); so is the result."""
    ((a, b), (c, d)), (vx, vy) = state
    diff = vx - vy
    if diff.sign() > 0:
        return ((a, a + b), (c, c + d)), (diff, vy)
    return ((a + b, b), (c + d, d)), (vx, vy - vx)


def value_steps(initial, n: int) -> list[tuple]:
    """[initial, after 1 step, ..., after n steps] by `arithmetic_step`."""
    out = [tuple(initial)]
    for _ in range(n):
        out.append(arithmetic_step(out[-1]))
    return out


def step_labels(states: list[tuple]) -> list[str | None]:
    """The name a report gives each of `value_steps`' states, read off the values:
    None for the first, then "DivideSecondIntoFirst" where the first parameter's
    value dropped and "DivideFirstIntoSecond" where the second's did."""
    return [None] + ["DivideSecondIntoFirst" if after[1][0] != before[1][0]
                     else "DivideFirstIntoSecond" for before, after in zip(states, states[1:])]


def series_value(nu: MonomialValuation,
                 monomials: Iterable[tuple[int, int]]) -> tuple[ValueElement, int]:
    """Value of a power series given by a degree-ordered monomial stream.

    The stream must yield support monomials in nondecreasing total
    degree.  Consumption stops at the first monomial whose total degree
    n satisfies n * min(val_u, val_v) > (current minimum): no later
    monomial can lower the minimum.  Returns (value, n).  If the stream
    is finite, n is the least such integer degree.
    """
    small = nu.val_u if nu.val_u < nu.val_v else nu.val_v
    best = None
    last_deg = -1
    for e_u, e_v in monomials:
        deg = e_u + e_v
        if deg < last_deg:
            raise ValuationError("stream not ordered by total degree")
        last_deg = deg
        if best is not None and best < small.scale(deg):
            return best, deg
        val = nu.monomial_value(e_u, e_v)
        if best is None or val < best:
            best = val
    if best is None:
        raise ValuationError("empty stream")
    # the least n > last_deg with best < n * small (small > 0): doubling, then bisection
    low, high = last_deg, last_deg + 1
    while not best < small.scale(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if best < small.scale(mid) else (mid, high)
    return best, high
