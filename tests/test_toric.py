import itertools
import os
import random
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (adjugate, cofactor_det, enumerated_hilbert_basis, full_size_offset,
                     hirzebruch_jung_digits, in_cone, matmul, semigroup_contains,
                     smith_adjugate)
from valsweep import toric
from valsweep.errors import CertificationError
from valsweep.quotient import ORDER_MAX
from valsweep.toric import (ToricError, below_ring_regularity, det_int, dual_cone_2d,
                            hilbert_basis_2d, primitive, smith_normal_form)


def brute_force_hilbert_basis(u1, u2, box=40):
    """Independent oracle: irreducible cone lattice points in a box."""
    pts = {(x, y) for x in range(-box, box + 1) for y in range(-box, box + 1)
           if (x, y) != (0, 0) and in_cone((x, y), u1, u2)}
    return sorted(p for p in pts
                  if not any((p[0] - q[0], p[1] - q[1]) in pts for q in pts))


def eye(n, scale=1):
    return [[scale if i == j else 0 for j in range(n)] for i in range(n)]


def as_lists(m):
    return [list(row) for row in m]


class TestAdjugate:
    """The Smith route adj(A) = det(A) V D^-1 U against the cofactor oracle."""

    def test_2x2(self):
        assert adjugate([[7, 9], [2, 1]]) == ((1, -9), (-2, 7))
        assert smith_adjugate([[7, 9], [2, 1]]) == (-11, ((1, -9), (-2, 7)))

    def test_identity(self):
        assert as_lists(adjugate(eye(3))) == eye(3)
        assert smith_adjugate(eye(3)) == (1, adjugate(eye(3)))

    def test_3x3_product(self):
        a = [[2, 1, 0], [0, 3, 1], [1, 0, 1]]
        assert det_int(a) == 7
        assert matmul(a, adjugate(a)) == eye(3, 7)
        assert smith_adjugate(a) == (7, adjugate(a))


class TestDeterminant:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_matches_cofactor_oracle(self, a):
        assert det_int(a) == cofactor_det(a)

    def test_validates_once(self, monkeypatch):
        # the minors of a validated matrix are expanded without re-validation
        calls = []
        real = toric.as_int_matrix
        monkeypatch.setattr(toric, "as_int_matrix", lambda a: calls.append(a) or real(a))
        assert det_int(eye(5, 2)) == 32
        assert len(calls) == 1

    @pytest.mark.parametrize("a", [[], [[1, 2]], [[1, 2], [3]], 5])
    def test_rejects_non_square(self, a):
        with pytest.raises(ToricError):
            det_int(a)


class TestSmithNormalForm:
    def test_q11_matrix(self):
        form = smith_normal_form([[7, 9], [2, 1]])
        assert form.diagonal() == [1, 11]
        assert form.quotient_invariants() == [11]

    def test_p13_matrix(self):
        form = smith_normal_form([[9, 11], [2, 1]])
        assert form.diagonal() == [1, 13]

    def test_already_diagonal(self):
        form = smith_normal_form([[2, 0], [0, 4]])
        assert form.diagonal() == [2, 4]
        assert form.quotient_invariants() == [2, 4]

    def test_divisibility_fix(self):
        form = smith_normal_form([[2, 0], [0, 3]])
        assert form.diagonal() == [1, 6]

    def test_singular_matrix(self):
        form = smith_normal_form([[1, 2], [2, 4]])
        assert form.diagonal() == [1, 0]

    def test_tuples_of_int_rows(self):
        form = smith_normal_form([[2, 1, 0], [0, 3, 1], [1, 0, 1]])
        for m in (form.u, form.d, form.v):
            assert type(m) is tuple
            assert all(type(row) is tuple and all(type(x) is int for x in row) for row in m)

    @pytest.mark.parametrize("a", [[[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [], [1, 2, 3, 4]])
    def test_non_square_rejected(self, a):
        with pytest.raises(ToricError):
            smith_normal_form(a)

    def test_size_cap(self):
        assert toric.SNF_N_MAX == 6
        assert smith_normal_form(eye(6, 2)).diagonal() == [2] * 6
        with pytest.raises(ToricError, match="n <= 6 required"):
            smith_normal_form(eye(7))

    def test_random_matrices(self):
        rng = random.Random(123)
        for _ in range(200):
            n = rng.randint(1, 4)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            form = smith_normal_form(a)
            assert matmul(matmul(form.u, a), form.v) == as_lists(form.d)
            assert abs(det_int(form.u)) == 1
            assert abs(det_int(form.v)) == 1
            diag = form.diagonal()
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                assert y == 0 or (x != 0 and y % x == 0)
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(det_int(a))


class TestDualCone:
    def test_q11_rows(self):
        rays = dual_cone_2d(((7, 9), (2, 1)))
        assert rays == ((-1, 2), (9, -7))
        assert -1 * 7 + 2 * 9 == 11
        assert 9 * 2 + -7 * 1 == 11

    def test_quadrant_self_dual(self):
        assert dual_cone_2d(((1, 0), (0, 1))) == ((1, 0), (0, 1))

    def test_sweep_step_matrix(self):
        rays = dual_cone_2d(((16, 9), (3, 1)))
        for ray in rays:
            for row in ((16, 9), (3, 1)):
                assert ray[0] * row[0] + ray[1] * row[1] >= 0

    def test_rank_deficient_rejected(self):
        with pytest.raises(ToricError):
            dual_cone_2d(((2, 4), (1, 2)))


class TestHilbertBasis:
    def test_smooth_quadrant(self):
        basis = hilbert_basis_2d(((1, 0), (0, 1)))
        assert basis.generators == ((0, 1), (1, 0))

    def test_order5_weight12_quotient(self):
        # invariants of the order-5 action with weights (1, 2), in the basis
        # (5,0), (-2,1) of the invariant exponent lattice
        basis = hilbert_basis_2d(((1, 0), (2, 5)))
        assert basis.generators == ((1, 0), (1, 1), (1, 2), (2, 5))
        to_exponents = {(a, b): (5 * a - 2 * b, b) for a, b in basis.generators}
        assert sorted(to_exponents.values()) == [(0, 5), (1, 2), (3, 1), (5, 0)]

    def test_dual_of_q11_matrix(self):
        basis = hilbert_basis_2d(dual_cone_2d(((7, 9), (2, 1))))
        assert len(basis.generators) >= 3
        assert list(basis.generators) == brute_force_hilbert_basis(*basis.rays)

    @pytest.mark.parametrize("rays", [
        ((1, 0), (1, 7)), ((2, 1), (1, 3)), ((-1, 2), (9, -7)), ((0, 1), (5, -3)),
    ])
    def test_against_brute_force_oracle(self, rays):
        basis = hilbert_basis_2d(rays)
        assert list(basis.generators) == brute_force_hilbert_basis(*basis.rays)

    def test_minimality(self):
        basis = hilbert_basis_2d(dual_cone_2d(((7, 9), (2, 1))))
        gens = basis.generators
        # each generator fails to be generated by the others
        for g in gens:
            rest = tuple(h for h in gens if h != g)
            assert not semigroup_contains(rest, g)

    def test_closure_under_addition(self):
        basis = hilbert_basis_2d(dual_cone_2d(((7, 9), (2, 1))))
        gens = basis.generators
        for g, h in itertools.combinations_with_replacement(gens, 2):
            assert semigroup_contains(gens, (g[0] + h[0], g[1] + h[1]))

    def test_half_plane_rejected(self):
        with pytest.raises(ToricError):
            hilbert_basis_2d(((1, 0), (-2, 0)))

    def test_exhaustive_against_enumeration(self):
        box = range(-6, 7)
        prims = [v for v in itertools.product(box, repeat=2) if gcd(*v) == 1]
        count = 0
        for u1, u2 in itertools.product(prims, repeat=2):
            if u1[0] * u2[1] - u1[1] * u2[0] == 0:
                continue
            basis = hilbert_basis_2d((u1, u2))
            assert basis == enumerated_hilbert_basis((u1, u2)), (u1, u2)
            assert list(basis.generators) == sorted(basis.generators)  # the CLI relies on it
            count += 1
        assert count == 9024


BIG = 2 ** 512
big_ints = st.integers(-BIG, BIG)
small_primitive = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda v: gcd(*v) == 1)
shear = st.integers(-2 ** 170, 2 ** 170)


def apply(g, v):
    return (g[0][0] * v[0] + g[0][1] * v[1], g[1][0] * v[0] + g[1][1] * v[1])


@st.composite
def gl2_big(draw):
    """A product of three shears and possibly a reflection: det +-1, entries up to 2^512."""
    g = ((1, 0), (0, draw(st.sampled_from([1, -1]))))
    for k, m in enumerate(draw(st.tuples(shear, shear, shear))):
        e = ((1, m), (0, 1)) if k % 2 == 0 else ((1, 0), (m, 1))
        g = tuple(tuple(sum(g[i][j] * e[j][l] for j in range(2)) for l in range(2))
                  for i in range(2))
    return g


class TestLargeEntries:
    """k depends only on residues mod D, so the basis does not care how big the rays are."""

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(big_ints, big_ints), st.tuples(big_ints, big_ints))
    @example((1, 0), (0, 1))
    @example((BIG, 1 - BIG), (BIG - 1, 2 - BIG))  # D = 1 with 512-bit entries
    @example((0, -1), (-BIG + 1, 3))
    def test_offset_matches_full_size_bezout(self, v1, v2):
        assume(v1 != (0, 0) and v2 != (0, 0))
        u1, u2 = primitive(v1), primitive(v2)
        d = u1[0] * u2[1] - u1[1] * u2[0]
        assume(d != 0)
        assert toric._hj_offset(u1, u2, abs(d)) == full_size_offset(u1, u2)

    @settings(max_examples=300, deadline=None)
    @given(small_primitive, small_primitive, gl2_big())
    def test_basis_moves_with_the_rays(self, u1, u2, g):
        assume(u1[0] * u2[1] - u1[1] * u2[0] != 0)
        small = enumerated_hilbert_basis((u1, u2))
        w1, w2 = apply(g, u1), apply(g, u2)
        moved = hilbert_basis_2d((w1, w2))
        assert moved.rays == (w1, w2)
        assert moved.generators == tuple(sorted(apply(g, v) for v in small.generators))
        assert toric._hj_offset(w1, w2, abs(det_int((w1, w2)))) == full_size_offset(w1, w2)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.integers(-6, 6)] * 4), gl2_big())
    @example((2, 0, 0, 2), ((1, 0), (0, 1)))
    @example((3, -6, 1, 5), ((1, 0), (0, 1)))
    def test_regularity_matches_cofactor_det_and_hilbert_basis(self, entries, g):
        # A = M g as the sweep builds it by column operations: entries up to
        # 2^512, |det| that of the small M, so the chain stays short
        a, b, c, d = entries
        matrix = tuple(apply(tuple(zip(*g)), row) for row in ((a, b), (c, d)))
        det = cofactor_det([list(row) for row in matrix])
        assume(det != 0)
        verdict = below_ring_regularity(matrix)
        assert verdict.det == det
        assert verdict.embedding_dim == len(hilbert_basis_2d(dual_cone_2d(matrix)).generators)
        assert verdict.regular == (verdict.embedding_dim == 2)
        assert verdict == below_ring_regularity(((a, b), (c, d)))._replace(det=det)


# The true digits of cone((1,0),(2,5)) are those of 5/3: [2, 3], the runs
# [(2, 1), (3, 1)].  The runs below are the digits [2, 2, 2, 2], [3], [3, 1, 4]
# and [], and a run of -1 digits.  [3, 1, 4] reaches (2, 5) through the
# reducible generator (1, 1) + (1, 2); the last case reaches it after listing
# (1, 3), which lies outside the cone.
CORRUPTED_RUNS = [[(2, 4)], [(3, 1)], [(3, 1), (1, 1), (4, 1)], [],
                  [(2, 2), (2, -1), (3, 1)]]

# Rows whose dual cone is cone((-1, 2), (9, -7)); an offset one off floors
# v_1 to (-1, 1), which is no lattice basis with (-1, 2).
Q11_STEP0 = ((7, 9), (2, 1))
REAL_OFFSET = toric._hj_offset


def floored_offset(u1, u2, dd):
    return (REAL_OFFSET(u1, u2, dd) + 1) % dd


# (A, corrupted (U, D, V)), one per Smith certificate check: U A V != D,
# U not unimodular, and a diagonal entry that does not divide the next.
CORRUPTED_SMITH = [
    ([[7, 9], [2, 1]], (((1, 0), (0, 1)), ((1, 0), (0, 11)), ((1, 0), (0, 1)))),
    ([[1, 0], [0, 1]], (((2, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 0), (0, 1)))),
    ([[2, 0], [0, 3]], (((1, 0), (0, 1)), ((2, 0), (0, 3)), ((1, 0), (0, 1)))),
]

CORRUPTED_CERTIFICATES_SCRIPT = f"""
from valsweep import toric
from valsweep.errors import CertificationError
def rejected(entry, arg, what):
    try:
        entry(arg)
    except CertificationError as exc:
        print("rejected:", exc)
    else:
        raise SystemExit(f"{{what}} was accepted")
real_runs, real_offset, real_dual = toric._hj_runs, toric._hj_offset, toric.dual_cone_2d
for runs in {CORRUPTED_RUNS!r}:
    toric._hj_runs = lambda dd, k: runs
    rejected(toric.hilbert_basis_2d, ((1, 0), (2, 5)), f"corrupted runs {{runs}}")
toric._hj_runs = real_runs
toric._hj_offset = lambda u1, u2, dd: (real_offset(u1, u2, dd) + 1) % dd
rejected(toric.hilbert_basis_2d, toric.dual_cone_2d({Q11_STEP0!r}), "a floored v_1")
rejected(toric.below_ring_regularity, {Q11_STEP0!r}, "a floored v_1")
toric._hj_offset = real_offset
toric.dual_cone_2d = lambda rows: ((1, 0), (0, 1))
rejected(toric.below_ring_regularity, ((5, -2), (0, 1)), "a criteria disagreement")
toric.dual_cone_2d = real_dual
for a, reduced in {CORRUPTED_SMITH!r}:
    toric._smith_reduce = lambda m: reduced
    rejected(toric.smith_normal_form, a, f"corrupted Smith form {{reduced}}")
"""


class TestHilbertCertificate:
    # each case is a list of runs (c, t): a digit c, then t - 1 twos
    @pytest.mark.parametrize("digits", CORRUPTED_RUNS)
    def test_corrupted_digits_rejected(self, monkeypatch, digits):
        monkeypatch.setattr(toric, "_hj_runs", lambda dd, k: digits)
        with pytest.raises(CertificationError):
            hilbert_basis_2d(((1, 0), (2, 5)))

    @pytest.mark.parametrize("digits", CORRUPTED_RUNS)
    def test_corrupted_digits_rejected_by_regularity(self, monkeypatch, digits):
        # the dual cone of these rows is cone((1, 0), (2, 5))
        monkeypatch.setattr(toric, "_hj_runs", lambda dd, k: digits)
        with pytest.raises(CertificationError):
            below_ring_regularity(((5, -2), (0, 1)))

    def test_floored_first_pair_rejected(self, monkeypatch):
        # the one basis check: the recurrence keeps det(v_i, v_{i+1}) after it
        rays = dual_cone_2d(Q11_STEP0)
        assert rays == ((-1, 2), (9, -7))
        monkeypatch.setattr(toric, "_hj_offset", floored_offset)
        broken = r"generators \(-1, 2\), \(-1, 1\) are not a lattice basis"
        with pytest.raises(CertificationError, match=broken):
            hilbert_basis_2d(rays)
        with pytest.raises(CertificationError, match=broken):
            below_ring_regularity(Q11_STEP0)

    def test_criteria_disagreement_rejected(self, monkeypatch):
        # det 5 with primitive rows is singular; the unit square cone says regular
        real = toric.dual_cone_2d
        monkeypatch.setattr(toric, "dual_cone_2d", lambda rows: (
            ((1, 0), (0, 1)) if rows == ((5, -2), (0, 1)) else real(rows)))
        with pytest.raises(CertificationError, match="criteria disagree"):
            below_ring_regularity(((5, -2), (0, 1)))

    @pytest.mark.parametrize("case, broken", zip(
        CORRUPTED_SMITH, ["U A V != D", "not unimodular", "does not divide"]))
    def test_corrupted_smith_form_rejected(self, monkeypatch, case, broken):
        a, reduced = case
        monkeypatch.setattr(toric, "_smith_reduce", lambda m: reduced)
        with pytest.raises(CertificationError, match=f"Smith certificate fails: .*{broken}"):
            smith_normal_form(a)

    def test_certificate_survives_optimize_flag(self):
        src = Path(toric.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_CERTIFICATES_SCRIPT],
                              env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stdout.count("rejected:") == len(CORRUPTED_RUNS) + 3 + len(CORRUPTED_SMITH)


def expanded_digits(dd, k):
    """The digits of `toric._hj_runs`: each run (c, t) is c, then t - 1 twos."""
    return [x for c, t in toric._hj_runs(dd, k) for x in [c] + [2] * (t - 1)]


class TestHirzebruchJung:
    def test_digits(self):
        for (dd, k), digits in [((5, 3), [2, 3]), ((11, 9), [2, 2, 2, 2, 3]), ((7, 1), [7]),
                                ((1, 0), [])]:
            assert hirzebruch_jung_digits(dd, k) == digits
            assert expanded_digits(dd, k) == digits
        assert toric._hj_runs(11, 9) == [(2, 4), (3, 1)]


class TestRegularity:
    def test_q11_singular(self):
        verdict = below_ring_regularity([[7, 9], [2, 1]])
        assert not verdict.regular
        assert verdict.embedding_dim >= 3
        assert verdict.det == -11

    def test_unimodular_regular(self):
        verdict = below_ring_regularity([[1, 1], [0, 1]])
        assert verdict.regular and verdict.embedding_dim == 2

    def test_pseudo_reflection_scaling_regular(self):
        # rows (2,0),(0,2) reduce to the unit rows; the quotient is a
        # polynomial ring in the squared variables
        verdict = below_ring_regularity([[2, 0], [0, 2]])
        assert verdict.regular

    def test_singular_matrix_rejected(self):
        with pytest.raises(ToricError):
            below_ring_regularity([[1, 2], [2, 4]])

    @pytest.mark.parametrize("a", [[[1, 2, 3], [4, 5, 6], [7, 8, 10]], [[1, 2], [3]], [1, 2],
                                   None])
    def test_not_2x2_rejected(self, a):
        with pytest.raises(ToricError, match="expected a 2x2 matrix"):
            below_ring_regularity(a)

    def test_criteria_agree_small_sample(self):
        rng = random.Random(5)
        for _ in range(100):
            a = [[rng.randint(0, 10) for _ in range(2)] for _ in range(2)]
            if det_int(a) == 0:
                continue
            verdict = below_ring_regularity(a)  # raises internally on disagreement
            assert verdict.regular == (verdict.embedding_dim == 2)

    def test_sweep_semigroup_nonnegative(self):
        # invariant monomials expressed upstairs have nonnegative exponents
        for a in ([[7, 9], [2, 1]], [[16, 9], [3, 1]], [[9, 11], [2, 1]]):
            basis = hilbert_basis_2d(dual_cone_2d((tuple(a[0]), tuple(a[1]))))
            for m in basis.generators:
                image = (m[0] * a[0][0] + m[1] * a[0][1],
                         m[0] * a[1][0] + m[1] * a[1][1])
                assert image[0] >= 0 and image[1] >= 0


class TestPowerIdentity:
    """adj(A) A = det(A) I, with adj(A) read off the certified Smith form
    and compared with the cofactor oracle."""

    @staticmethod
    def certify(a):
        det, rows = smith_adjugate(a)
        assert rows == adjugate(a)
        assert matmul(rows, a) == eye(len(a), det)
        return det, rows

    def test_q11_row(self):
        det, rows = self.certify([[7, 9], [2, 1]])
        assert det == -11
        assert rows[0] == (1, -9)
        # exponents of the first adjugate row pushed through A: -11 * e1
        assert (1 * 7 + -9 * 2, 1 * 9 + -9 * 1) == (-11, 0)

    def test_identity(self):
        det, _ = self.certify(eye(3))
        assert det == 1

    def test_random_3x3(self):
        rng = random.Random(99)
        count = 0
        while count < 50:
            a = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
            if det_int(a) == 0:
                continue
            det, _ = self.certify(a)
            assert det == det_int(a)
            count += 1

    def test_singular_rejected(self):
        with pytest.raises(ToricError):
            smith_adjugate([[1, 1], [1, 1]])


class TestPrimitive:
    def test_reduce(self):
        assert primitive((4, -6)) == (2, -3)

    def test_zero_rejected(self):
        with pytest.raises(ToricError):
            primitive((0, 0))


def from_partial_quotients(quotients):
    """(D, k) with D/k = [a_1; a_2, ..., a_n]."""
    d, k = quotients[-1], 1
    for a in reversed(quotients[:-1]):
        d, k = a * d + k, d
    return d, k


class TestChainLength:
    """The runs read off the continued fraction of D/k against the ceiling
    expansion, and the cap that only the listed chain is checked against."""

    @staticmethod
    def check_runs(dd, k):
        digits = hirzebruch_jung_digits(dd, k)
        assert expanded_digits(dd, k) == digits
        assert sum(t for _, t in toric._hj_runs(dd, k)) == len(digits)

    def test_matches_digit_count_exhaustively(self):
        count = 0
        for dd in range(1, 500):
            for k in range(dd):
                if gcd(dd, k) == 1:
                    self.check_runs(dd, k)
                    count += 1
        assert count == 75916

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 100), min_size=1, max_size=30))
    def test_matches_digit_count_for_large_d(self, quotients):
        self.check_runs(*from_partial_quotients(quotients))

    def test_cap_admits_every_quotient_order(self):
        # a chain over |det| = D has at most D + 1 vectors
        assert toric.CHAIN_MAX >= ORDER_MAX + 1

    def test_boundary(self):
        # cone((1, 0), (1, D)) has the D + 1 generators (1, j), 0 <= j <= D
        basis = hilbert_basis_2d(((1, 0), (1, toric.CHAIN_MAX - 1)))
        assert basis.generators == tuple((1, j) for j in range(toric.CHAIN_MAX))
        with pytest.raises(ToricError, match=f"chain length <= {toric.CHAIN_MAX} required"):
            hilbert_basis_2d(((1, 0), (1, toric.CHAIN_MAX)))

    @pytest.mark.parametrize("exponent", [12, 5000])
    def test_regularity_answers_long_chain(self, exponent):
        # the dual cone is cone((1, 0), (1, D)): D + 1 generators, counted, not listed
        dd = 10 ** exponent
        start = time.monotonic()
        verdict = below_ring_regularity(((dd, -1), (0, 1)))
        assert time.monotonic() - start < 0.1
        assert verdict == (False, dd + 1, dd)

    def test_short_chain_at_huge_det(self):
        basis = hilbert_basis_2d(((1, 0), (-1, 10 ** 12)))
        assert basis.generators == ((-1, 10 ** 12), (0, 1), (1, 0))
