import itertools

import pytest

from oracles import (brute_force_invariants, filtered_minimal_generators, is_invariant,
                     semigroup_contains)
from oracles import scanned_ramification_minors
from valsweep import quotient
from valsweep.quotient import (DiagonalAction, QuotientError,
                               invariant_generators,
                               is_prime, pi1_order,
                               ramification_minors)

PRIMES = [2, 3, 5, 7, 11, 13]


class TestDiagonalAction:
    def test_non_prime_rejected(self):
        with pytest.raises(QuotientError):
            DiagonalAction(4, 1, 1)

    def test_trivial_rejected(self):
        with pytest.raises(QuotientError):
            DiagonalAction(5, 0, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(QuotientError):
            DiagonalAction(5, 5, 1)

    def test_order_cap_checked_before_primality(self, monkeypatch):
        assert DiagonalAction(99991, 1, 2).order == 99991  # the largest prime under the cap
        monkeypatch.setattr(quotient, "is_prime", None)  # a call would raise TypeError
        for order in (100003, 10 ** 30):
            with pytest.raises(QuotientError, match="order <= 100000 required"):
                DiagonalAction(order, 1, 2)

    @pytest.mark.parametrize("a, b", [(0, 1), (3, 0)])
    def test_weight_map_of_a_zero_weight_rejected(self, a, b):
        with pytest.raises(QuotientError, match="^weight map needs both weights nonzero$"):
            DiagonalAction(5, a, b).weight_map()

    def test_weight_map_bijective(self):
        for p in PRIMES:
            for a, b in itertools.product(range(1, p), repeat=2):
                jmap = DiagonalAction(p, a, b).weight_map()
                assert sorted(jmap.values()) == list(range(1, p))


class TestInvariantGenerators:
    def test_order5_weights_1_2(self):
        full, minimal = invariant_generators(DiagonalAction(5, 1, 2))
        assert full == [(0, 5), (1, 2), (2, 4), (3, 1), (4, 3), (5, 0)]
        assert minimal == [(0, 5), (1, 2), (3, 1), (5, 0)]

    def test_weight_zero_regular(self):
        full, minimal = invariant_generators(DiagonalAction(3, 0, 1))
        assert full == minimal == [(0, 3), (1, 0)]

    def test_a1_cone_point(self):
        full, minimal = invariant_generators(DiagonalAction(2, 1, 1))
        assert full == minimal == [(0, 2), (1, 1), (2, 0)]

    @pytest.mark.parametrize("p", PRIMES)
    def test_formula_matches_brute_force(self, p):
        for a, b in itertools.product(range(p), repeat=2):
            if (a, b) == (0, 0):
                continue
            action = DiagonalAction(p, a, b)
            full, minimal = invariant_generators(action)
            assert full == sorted(full) and minimal == sorted(minimal)  # the CLI relies on it
            gens = tuple(minimal)
            for mono in brute_force_invariants(action, 2 * p):
                assert semigroup_contains(gens, mono), (p, a, b, mono)
            # conversely every generator is invariant
            for g in full:
                assert is_invariant(action, *g)

    def test_minimal_matches_filtering_oracle(self):
        # the full list depends on the weights only through a/b mod p,
        # so the oracle runs once per distinct list
        oracle: dict[tuple, list] = {}
        for p in [n for n in range(2, 32) if is_prime(n)]:
            for a, b in itertools.product(range(p), repeat=2):
                if (a, b) == (0, 0):
                    continue
                full, minimal = invariant_generators(DiagonalAction(p, a, b))
                key = tuple(full)
                if key not in oracle:
                    oracle[key] = filtered_minimal_generators(full)
                assert minimal == oracle[key], (p, a, b)

    @pytest.mark.parametrize("p", PRIMES)
    def test_regular_iff_weight_zero_iff_two_generators(self, p):
        for a, b in itertools.product(range(p), repeat=2):
            if (a, b) == (0, 0):
                continue
            action = DiagonalAction(p, a, b)
            _, minimal = invariant_generators(action)
            assert (pi1_order(action) == 1) == (a == 0 or b == 0)
            assert (pi1_order(action) == 1) == (len(minimal) == 2)


class TestRamification:
    def test_order5_weights_1_2(self):
        wit = ramification_minors(DiagonalAction(5, 1, 2))
        assert wit.coefficient == 5
        assert wit.y_witness == (0, 6)
        assert wit.x_witness == (7, 0)

    def test_order3_diagonal(self):
        wit = ramification_minors(DiagonalAction(3, 1, 1))
        assert (wit.y_witness, wit.x_witness) == ((0, 4), (4, 0))

    def test_order2(self):
        wit = ramification_minors(DiagonalAction(2, 1, 1))
        assert (wit.y_witness, wit.x_witness) == ((0, 2), (2, 0))

    def test_requires_both_weights(self):
        with pytest.raises(QuotientError):
            ramification_minors(DiagonalAction(3, 0, 1))

    @pytest.mark.parametrize("p", PRIMES)
    def test_witness_shapes(self, p):
        for a, b in itertools.product(range(1, p), repeat=2):
            action = DiagonalAction(p, a, b)
            wit = ramification_minors(action)
            jmap = action.weight_map()
            assert wit.y_witness == (0, p - 1 + jmap[p - 1])
            i_1 = next(i for i, j in jmap.items() if j == 1)
            assert wit.x_witness == (2 * p - 1 - i_1, 0)


    def test_closed_form_matches_scan(self):
        for p in filter(is_prime, range(98)):
            for a, b in itertools.product(range(1, p), repeat=2):
                action = DiagonalAction(p, a, b)
                assert ramification_minors(action) == scanned_ramification_minors(action)


class TestPi1:
    def test_order5_weights_1_2(self):
        assert pi1_order(DiagonalAction(5, 1, 2)) == 5

    def test_weight_zero(self):
        assert pi1_order(DiagonalAction(3, 0, 1)) == 1

    def test_sweep_type_action(self):
        assert pi1_order(DiagonalAction(11, 9, 2)) == 11

    @pytest.mark.parametrize("p", PRIMES)
    def test_dichotomy(self, p):
        for a, b in itertools.product(range(p), repeat=2):
            if (a, b) == (0, 0):
                continue
            action = DiagonalAction(p, a, b)
            order = pi1_order(action)
            assert order in (1, p)
            _, minimal = invariant_generators(action)
            assert (order == p) == (len(minimal) >= 3)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
