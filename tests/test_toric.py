import itertools
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from oracles import enumerated_hilbert_basis, in_cone, semigroup_contains
from valsweep import toric
from valsweep.toric import (SemigroupBasis, ToricError, adjugate,
                            adjugate_power_identity, below_ring_regularity,
                            det_int, dual_cone_2d, hilbert_basis_2d,
                            hirzebruch_jung_digits, primitive,
                            smith_normal_form)


def brute_force_hilbert_basis(u1, u2, box=40):
    """Independent oracle: irreducible cone lattice points in a box."""
    pts = {(x, y) for x in range(-box, box + 1) for y in range(-box, box + 1)
           if (x, y) != (0, 0) and in_cone((x, y), u1, u2)}
    return sorted(p for p in pts
                  if not any((p[0] - q[0], p[1] - q[1]) in pts for q in pts))


class TestAdjugate:
    def test_2x2(self):
        assert adjugate([[7, 9], [2, 1]]).tolist() == [[1, -9], [-2, 7]]

    def test_identity(self):
        assert adjugate(np.eye(3, dtype=object)).tolist() == np.eye(3, dtype=object).tolist()

    def test_3x3_product(self):
        a = np.array([[2, 1, 0], [0, 3, 1], [1, 0, 1]], dtype=object)
        assert det_int(a) == 7
        assert (a @ adjugate(a)).tolist() == (7 * np.eye(3, dtype=object)).tolist()


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

    def test_random_matrices(self):
        rng = random.Random(123)
        for _ in range(200):
            n = rng.randint(1, 4)
            a = np.array([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)],
                         dtype=object)
            form = smith_normal_form(a)
            assert np.array_equal(form.u @ a @ form.v, form.d)
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
        assert len(basis) >= 3
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
            assert hilbert_basis_2d((u1, u2)) == enumerated_hilbert_basis((u1, u2)), (u1, u2)
            count += 1
        assert count == 9024


# The true digits of cone((1,0),(2,5)) are those of 5/3: [2, 3].  [3, 1, 4]
# reaches (2, 5) too, through the reducible generator (1, 1) + (1, 2).
CORRUPTED_DIGITS = [[2, 2, 2, 2], [3], [3, 1, 4], []]

CORRUPTED_DIGITS_SCRIPT = f"""
from valsweep import toric
for digits in {CORRUPTED_DIGITS!r}:
    toric.hirzebruch_jung_digits = lambda a, b: digits
    try:
        toric.hilbert_basis_2d(((1, 0), (2, 5)))
    except AssertionError as exc:
        print("rejected:", exc)
    else:
        raise SystemExit(f"corrupted digits {{digits}} were accepted")
"""


class TestHilbertCertificate:
    @pytest.mark.parametrize("digits", CORRUPTED_DIGITS)
    def test_corrupted_digits_rejected(self, monkeypatch, digits):
        monkeypatch.setattr(toric, "hirzebruch_jung_digits", lambda a, b: digits)
        with pytest.raises(AssertionError):
            hilbert_basis_2d(((1, 0), (2, 5)))

    def test_certificate_survives_optimize_flag(self):
        src = Path(toric.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_DIGITS_SCRIPT],
                              env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stdout.count("rejected:") == len(CORRUPTED_DIGITS)


class TestHirzebruchJung:
    def test_digits(self):
        assert hirzebruch_jung_digits(5, 3) == [2, 3]
        assert hirzebruch_jung_digits(11, 9) == [2, 2, 2, 2, 3]
        assert hirzebruch_jung_digits(7, 1) == [7]


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
    def test_q11_row(self):
        cert = adjugate_power_identity([[7, 9], [2, 1]])
        assert cert.det == -11
        assert cert.rows[0] == (1, -9)
        # exponents of the first adjugate row pushed through A: -11 * e1
        assert (1 * 7 + -9 * 2, 1 * 9 + -9 * 1) == (-11, 0)

    def test_identity(self):
        cert = adjugate_power_identity(np.eye(3, dtype=object))
        assert cert.det == 1

    def test_random_3x3(self):
        rng = random.Random(99)
        count = 0
        while count < 50:
            a = np.array([[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)],
                         dtype=object)
            if det_int(a) == 0:
                continue
            cert = adjugate_power_identity(a)
            assert cert.det == det_int(a)
            count += 1

    def test_singular_rejected(self):
        with pytest.raises(ToricError):
            adjugate_power_identity([[1, 1], [1, 1]])


class TestPrimitive:
    def test_reduce(self):
        assert primitive((4, -6)) == (2, -3)

    def test_zero_rejected(self):
        with pytest.raises(ToricError):
            primitive((0, 0))
