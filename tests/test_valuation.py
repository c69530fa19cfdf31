import itertools
import math
import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import valsweep
from oracles import exact, series_value
from valsweep.qfield import QuadExt, tau_from_a
from valsweep.valuation import (MonomialValuation, NotASubgroupError,
                                ValuationError, ValueElement, group_index)

TAU7 = tau_from_a(7)


def ve(i, j, n, tau=TAU7):
    return ValueElement.make(i, j, n, tau)


@pytest.fixture
def nu_bar():
    # values tau on u and 1 on v
    return MonomialValuation(ve(0, 1, 1), ve(1, 0, 1))


class TestValueElementInputChecks:
    """Each input check fires through the entry it guards, with its message."""

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValuationError, match="^zero denominator$"):
            ValueElement.make(1, 1, 0, TAU7)

    def test_rational_tau_rejected(self):
        with pytest.raises(ValuationError, match="^tau must be irrational$"):
            ValueElement.make(0, 1, 1, QuadExt(3, 0, 1, 77))

    @pytest.mark.parametrize("combine", [lambda v: v + (0, 1, 1, TAU7),
                                         lambda v: v - (0, 1, 1, TAU7),
                                         lambda v: group_index((v, v), (v, (1, 0, 1, TAU7)))])
    def test_combining_with_a_non_element_rejected(self, combine):
        with pytest.raises(TypeError, match="^expected a ValueElement$"):
            combine(ve(1, 1, 1))

    @pytest.mark.parametrize("scale", [lambda v: v.scale(1.5), lambda v: 2.0 * v])
    def test_non_integer_scale_rejected(self, scale):
        with pytest.raises(TypeError, match="^cannot scale a ValueElement by float$"):
            scale(ve(1, 1, 1))

    @pytest.mark.parametrize("zero", [ve(0, 0, 3), ValueElement(0, 0, 5, TAU7)])
    def test_division_by_a_zero_value_rejected(self, zero):
        with pytest.raises(ValuationError, match="^division by a zero value$"):
            ve(1, 1, 1).ratio(zero)

    def test_division_by_a_zero_value_rejected_under_optimize(self):
        script = ("from valsweep.qfield import tau_from_a\n"
                  "from valsweep.valuation import ValuationError, ValueElement\n"
                  "tau = tau_from_a(7)\n"
                  "try:\n"
                  "    ValueElement.make(1, 1, 1, tau).ratio(ValueElement.make(0, 0, 3, tau))\n"
                  "except ValuationError as exc:\n"
                  "    print(__debug__, exc)\n")
        src = Path(valsweep.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "False division by a zero value\n", "")


class TestOrder:
    """QuadExt has no order and no +, and ValueElement has only <: either
    type, a NamedTuple, would otherwise compare as a tuple (tau > 5 read
    False) or concatenate.  Each removed operator names its type and sign()."""

    ORDERLESS = {"QuadExt": (TAU7, QuadExt(5, 1, 2, 77), ("lt", "le", "gt", "ge", "add")),
                 "ValueElement": (ve(0, 1, 1), ve(1, 0, 1), ("le", "gt", "ge"))}

    @pytest.mark.parametrize("kind, op", [(kind, op) for kind, (*_, ops) in ORDERLESS.items()
                                          for op in ops])
    def test_removed_operators_raise(self, kind, op):
        x, y, _ = self.ORDERLESS[kind]
        for other in (y, 5):
            with pytest.raises(TypeError) as exc:
                getattr(operator, op)(x, other)
            assert str(exc.value) == f"{kind} has no tuple order or tuple arithmetic; use sign()"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), *[st.integers(-10 ** 6, 10 ** 6)] * 4, *[st.integers(1, 99)] * 2)
    @example(6, 5, 5, 1, 1, 5, 1)  # (5 + 5 tau)/5 = 1 + tau, which mpmath may round below it
    def test_lt_matches_mpmath(self, a, i1, j1, i2, j2, n1, n2):
        tau = tau_from_a(a)
        x, y = ve(i1, j1, n1, tau), ve(i2, j2, n2, tau)
        if i1 * n2 == i2 * n1 and j1 * n2 == j2 * n1:  # equal values, as tau is irrational
            assert not x < y and not y < x
            return
        with mpmath.workdps(60):
            mp_tau = (tau.s + tau.t * mpmath.sqrt(tau.d)) / tau.r
            assert (x < y) == ((i1 + j1 * mp_tau) / n1 < (i2 + j2 * mp_tau) / n2)


class TestValueElement:
    def test_canonical_reduction(self):
        x = ve(2, 4, 6)
        assert (x.i, x.j, x.n) == (1, 2, 3)

    def test_zero_iff_both_zero(self):
        assert ve(0, 0, 5) == ve(0, 0, 1) and ve(0, 0, 5).sign() == 0
        assert ve(1, -1, 1).sign() != 0  # 1 - tau != 0 since tau irrational

    def test_ordering(self):
        assert ve(1, 0, 1) < ve(0, 1, 1)  # 1 < tau
        assert ve(9, -1, 11) < ve(-7, 2, 11)  # (9-tau)/11 < (2 tau-7)/11

    def test_arithmetic(self):
        assert ve(1, 0, 1) + ve(0, 1, 1) == ve(1, 1, 1)
        assert ve(1, 1, 2).scale(4) == ve(2, 2, 1)
        assert ve(1, 2, 3) - ve(1, 2, 3) == ve(0, 0, 1)

    def test_mixed_tau_rejected(self):
        with pytest.raises(ValuationError):
            ve(1, 0, 1) + ve(1, 0, 1, tau_from_a(1))

    def test_operations_give_value_elements(self):
        # ValueElement is a tuple: + and - must not concatenate
        x, y = ve(1, 2, 3), ve(0, 1, 1)
        cases = [(x + y, ve(1, 5, 3)), (x - y, ve(1, -1, 3)), (x.scale(3), ve(1, 2, 1))]
        for got, expected in cases:
            assert type(got) is ValueElement and got == expected

    def test_int_times_element_scales(self):
        # ValueElement is a tuple: k * v must not repeat it
        x = ve(1, 2, 3)
        for k in (-2, 0, 2, 3, True):
            assert type(k * x) is type(x * k) is ValueElement
            assert k * x == x * k == x.scale(k)
        for other in (1.5, Fraction(3), "2", None, x):
            with pytest.raises(TypeError):
                x * other
            with pytest.raises(TypeError):
                other * x

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), *[st.integers(-50, 50)] * 4, *[st.integers(1, 20)] * 2)
    def test_ratio_matches_sympy(self, a, i1, j1, i2, j2, n1, n2):
        assume((i2, j2) != (0, 0))
        tau = tau_from_a(a)
        x, y = ve(i1, j1, n1, tau), ve(i2, j2, n2, tau)
        ratio = x.ratio(y)
        assert QuadExt.make(*ratio) == ratio  # canonical
        assert (exact(ratio) * exact(y) - exact(x)).expand() == 0

    def test_sign_matches_quadext(self):
        for i, j, n in itertools.product(range(-9, 10), range(-9, 10), (1, 2, 7)):
            x = ve(i, j, n)
            assert x.sign() == x.as_quadext().sign()


class TestMakeValuation:
    def test_paper_pair_accepted(self, nu_bar):
        assert nu_bar.value_of([(1, 0)]) == ve(0, 1, 1)

    def test_rationally_dependent_rejected(self):
        with pytest.raises(ValuationError):
            MonomialValuation(ve(2, 0, 1), ve(1, 0, 1))

    def test_chart_values_accepted(self):
        v = MonomialValuation(ve(9, -1, 11), ve(-7, 2, 11))
        assert v.value_of([(1, 0)]).sign() > 0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValuationError):
            MonomialValuation(ve(-1, 0, 1), ve(1, 0, 1))

    def test_mismatched_tau_rejected(self):
        with pytest.raises(ValuationError, match="mismatched ambient tau"):
            MonomialValuation(ve(0, 1, 1), ve(1, 0, 1, tau_from_a(3)))


class TestValueOf:
    def test_min_of_parameters(self, nu_bar):
        assert nu_bar.value_of([(1, 0), (0, 1)]) == ve(1, 0, 1)

    def test_single_monomial(self, nu_bar):
        assert nu_bar.value_of([(2, 3)]) == ve(3, 2, 1)

    def test_exact_tie_break(self, nu_bar):
        # min(tau+2, 3 tau) = tau+2 since tau > 1
        assert nu_bar.value_of([(1, 2), (3, 0)]) == ve(2, 1, 1)

    def test_empty_rejected(self, nu_bar):
        with pytest.raises(ValuationError):
            nu_bar.value_of([])

    def test_duplicate_rejected(self, nu_bar):
        with pytest.raises(ValuationError):
            nu_bar.value_of([(1, 0), (1, 0)])


class TestSeriesValue:
    def test_low_terms_then_tail(self, nu_bar):
        stream = [(1, 0), (0, 1)] + [(i, 9 - i) for i in range(10)]
        value, bound = series_value(nu_bar, stream)
        assert value == ve(1, 0, 1)
        assert bound == 9

    def test_single_monomial(self, nu_bar):
        value, bound = series_value(nu_bar, [(0, 1)])
        assert value == ve(1, 0, 1)
        assert bound == 2

    def test_finite_stream_bound(self, nu_bar):
        value, bound = series_value(nu_bar, [(2, 3), (5, 0)])
        assert value == ve(3, 2, 1)  # 2 tau + 3 < 5 tau
        assert bound == 19  # least n with n > 2 tau + 3 ~ 18.77

    def test_infinite_stream_terminates(self, nu_bar):
        def stream():
            yield (1, 0)
            yield (0, 1)
            deg = 9
            while True:
                yield (deg, 0)
                deg += 1

        value, bound = series_value(nu_bar, stream())
        assert value == ve(1, 0, 1)
        assert bound == 9

    def test_stable_under_longer_prefixes(self, nu_bar):
        base = [(2, 1), (1, 3), (4, 4)]
        tail = [(k, 0) for k in range(9, 40)]
        v1, b1 = series_value(nu_bar, base + tail[:5])
        v2, b2 = series_value(nu_bar, base + tail)
        assert v1 == v2 and b1 == b2

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 3)),
           st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 3)),
           st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=6,
                    unique=True))
    def test_bound_matches_counting(self, a, u, v, support):
        tau = tau_from_a(a)
        assume(u[:2] != (0, 0) and v[:2] != (0, 0) and u[0] * v[1] != u[1] * v[0])
        nu = MonomialValuation(ve(*u, tau), ve(*v, tau))
        stream = sorted(support, key=sum)
        value, bound = series_value(nu, stream)
        last_deg = sum(stream[-1])
        if bound > last_deg:  # the stream ran out: count up to the bound
            small = min(nu.val_u, nu.val_v)
            n = last_deg + 1
            while not value < small.scale(n):
                n += 1
            assert bound == n

    def test_huge_ratio_in_closed_form(self):
        # value 10^12 + tau against a parameter value of 1
        nu = MonomialValuation(ve(1, 0, 1), ve(10 ** 12, 1, 1))
        start = time.perf_counter()
        value, bound = series_value(nu, [(0, 1)])
        assert time.perf_counter() - start < 0.05
        assert value == ve(10 ** 12, 1, 1)
        assert bound == 10 ** 12 + 8  # 7 < tau < 8

    def test_unordered_rejected(self, nu_bar):
        with pytest.raises(ValuationError):
            series_value(nu_bar, [(0, 3), (1, 0)])

    def test_empty_rejected(self, nu_bar):
        with pytest.raises(ValuationError):
            series_value(nu_bar, [])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 3)),
           st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 3)),
           st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=6,
                    unique=True))
    def test_agrees_with_value_of(self, a, u, v, support):
        tau = tau_from_a(a)
        assume(u[:2] != (0, 0) and v[:2] != (0, 0) and u[0] * v[1] != u[1] * v[0])
        nu = MonomialValuation(ve(*u, tau), ve(*v, tau))
        value, _ = series_value(nu, sorted(support, key=sum))
        assert value == nu.value_of(support)


class TestGroupIndex:
    def test_dependent_supergroup_rejected(self):
        gens = (ve(0, 1, 1), ve(1, 0, 1))
        with pytest.raises(ValuationError,
                           match="^supergroup generators are rationally dependent$"):
            group_index(gens, (ve(1, 2, 3), ve(2, 4, 5)))

    def test_index_eleven(self):
        sub = (ve(0, 1, 1), ve(1, 0, 1))
        sup = (ve(9, -1, 11), ve(-7, 2, 11))
        assert group_index(sub, sup) == 11

    def test_identity(self):
        gens = (ve(0, 1, 1), ve(1, 0, 1))
        assert group_index(gens, gens) == 1

    def test_index_thirteen(self):
        # chart values of the second branch for (q, p) = (11, 13)
        sub = (ve(0, 1, 1), ve(1, 0, 1))
        sup = (ve(11, -1, 13), ve(-9, 2, 13))
        assert group_index(sub, sup) == 13

    def test_non_containment_detected(self):
        sub = (ve(1, 0, 2), ve(0, 1, 1))  # 1/2 is not in Z + Z tau
        sup = (ve(1, 0, 1), ve(0, 1, 1))
        with pytest.raises(NotASubgroupError):
            group_index(sub, sup)

    def test_matches_rational_solution(self):
        # the integer cross-multiplication against Cramer's rule over Q, on
        # integer combinations of the supergroup generators, some of them nudged
        # off the lattice
        rng = random.Random(17)
        outcomes = set()
        for _ in range(500):
            sup = tuple(ve(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(1, 12))
                        for _ in range(2))
            a1, b1, a2, b2 = (Fraction(x, s.n) for s in sup for x in (s.i, s.j))
            det = a1 * b2 - b1 * a2
            if det == 0:
                continue
            sub = []
            for _ in range(2):
                g = sup[0].scale(rng.randint(-4, 4)) + sup[1].scale(rng.randint(-4, 4))
                if rng.random() < 0.3:
                    g = g + ve(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(1, 5))
                sub.append(g)
            coeffs = []
            for g in sub:
                x, y = Fraction(g.i, g.n), Fraction(g.j, g.n)
                coeffs += [(x * b2 - y * a2) / det, (a1 * y - b1 * x) / det]
            index = abs(coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2])
            if any(c.denominator != 1 for c in coeffs):
                outcomes.add("not a subgroup")
                with pytest.raises(NotASubgroupError):
                    group_index(tuple(sub), sup)
            elif index == 0:
                outcomes.add("dependent")
                with pytest.raises(ValuationError, match="subgroup generators"):
                    group_index(tuple(sub), sup)
            else:
                outcomes.add("index")
                assert group_index(tuple(sub), sup) == index
        assert outcomes == {"not a subgroup", "dependent", "index"}


class TestInvariants:
    def test_multiplicativity_on_random_supports(self, nu_bar):
        rng = random.Random(7)
        for _ in range(500):
            f = {(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(1, 5))}
            g = {(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(1, 5))}
            prod = {(a + c, b + d) for a, b in f for c, d in g}
            assert nu_bar.value_of(prod) == nu_bar.value_of(f) + nu_bar.value_of(g)

    def test_ultrametric(self, nu_bar):
        rng = random.Random(11)
        for _ in range(200):
            f = {(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(1, 5))}
            g = {(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(1, 5))}
            vf, vg = nu_bar.value_of(f), nu_bar.value_of(g)
            vsum = nu_bar.value_of(f | g)
            assert not vsum < min(vf, vg)
            if vf != vg:
                assert vsum == min(vf, vg)

    def test_denominator_divides_lcm(self):
        val = MonomialValuation(ve(9, -1, 11), ve(-7, 2, 11))
        lcm = 11
        for e_u, e_v in itertools.product(range(6), repeat=2):
            if (e_u, e_v) == (0, 0):
                continue
            res = val.value_of([(e_u, e_v)])
            assert lcm % res.n == 0
