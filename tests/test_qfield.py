import ast
import random
from itertools import islice
from math import isqrt
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import bracketed_quotients, exact
from valsweep import qfield
from valsweep.cli import main
from valsweep.errors import CertificationError
from valsweep.qfield import (QFieldError, QuadExt, _quotient_stream, squarefree_decompose,
                             tau_from_a)
from valsweep.transform import branch_runs

mpmath.mp.dps = 60

SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 77, 221]
NONZERO = st.integers(-10**6, 10**6).filter(bool)


def to_mp(x: QuadExt) -> mpmath.mpf:
    return (x.s + x.t * mpmath.sqrt(x.d)) / x.r


def cf_fixed_point_numeric(a: int, terms: int = 60) -> mpmath.mpf:
    # evaluate [a; 1, a, 1, ...] truncated to `terms` partial quotients
    quotients = [a if k % 2 == 0 else 1 for k in range(terms)]
    val = mpmath.mpf(quotients[-1])
    for q in reversed(quotients[:-1]):
        val = q + 1 / val
    return val


class TestSquarefree:
    def test_decompose(self):
        assert squarefree_decompose(77) == (1, 77)
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(49) == (7, 1)


class TestTau:
    @pytest.mark.parametrize("a,expected", [
        (7, QuadExt(7, 1, 2, 77)),
        (1, QuadExt(1, 1, 2, 5)),
        (13, QuadExt(13, 1, 2, 221)),
    ])
    def test_closed_forms(self, a, expected):
        assert tau_from_a(a) == expected

    @pytest.mark.parametrize("a", [1, 7, 13])
    def test_numeric_iteration_oracle(self, a):
        tau = tau_from_a(a)
        assert abs(to_mp(tau) - cf_fixed_point_numeric(a)) < mpmath.mpf("1e-12")

    @pytest.mark.parametrize("a", range(1, 51))
    def test_minimal_polynomial_exact(self, a):
        tau = exact(tau_from_a(a))
        assert sympy.expand(tau * tau - a * tau - a) == 0
        assert tau - a > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(QFieldError):
            tau_from_a(0)

    def test_wrong_decomposition_fails_the_equation_check(self, monkeypatch):
        # 77 = 1^2 * 77, so (7 + 2*sqrt(77))/2 is no root of t^2 - 7t - 7
        monkeypatch.setattr(qfield, "squarefree_decompose", lambda n: (2, 77))
        with pytest.raises(CertificationError, match=r"does not satisfy t\^2 = 7\*t \+ 7"):
            tau_from_a(7)

    def test_irrational_part_fails_the_equation_check(self, monkeypatch):
        # (-7 + sqrt(77))/9 meets the rational part, 49 + 77 = 7*9*(-7 + 9),
        # but not the sqrt(d) part, 2*(-7) = 7*9
        monkeypatch.setattr(QuadExt, "_reduce", staticmethod(lambda *_: QuadExt(-7, 1, 9, 77)))
        with pytest.raises(CertificationError, match=r"does not satisfy t\^2 = 7\*t \+ 7"):
            tau_from_a(7)


class TestSign:
    def test_trivial(self):
        assert QuadExt.make(7, 1, 2, 77).sign() == 1
        assert QuadExt.make(0, 0, 1, 5).sign() == 0

    def test_two_minus_sqrt5(self):
        x = QuadExt.make(2, -1, 1, 5)
        assert x.sign() == -1
        assert mpmath.sign(to_mp(x)) == -1

    def test_random_against_numeric(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            s = rng.randint(-10**6, 10**6)
            t = rng.randint(-10**6, 10**6)
            r = rng.randint(1, 10**4)
            d = rng.choice(SQUAREFREE)
            x = QuadExt.make(s, t, r, d)
            numeric = to_mp(x)
            if x.s == 0 and x.t == 0:
                assert x.sign() == 0
            else:
                # 50-digit interval clearly separates nonzero values here
                assert abs(numeric) > mpmath.mpf("1e-50")
                assert x.sign() == mpmath.sign(numeric)


class TestInputChecks:
    """Each input check fires through the entry it guards, with its message."""

    def test_zero_denominator_rejected(self):
        with pytest.raises(QFieldError, match="^zero denominator$"):
            QuadExt.make(1, 1, 0, 5)

    @pytest.mark.parametrize("d", [4, 1, 0, -5])
    def test_square_or_nonpositive_radicand_rejected(self, d):
        with pytest.raises(QFieldError, match="^d must be a positive nonsquare$"):
            QuadExt.make(1, 1, 1, d)


class TestArithmetic:
    @given(st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 20)),
           st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 20)),
           st.sampled_from(SQUAREFREE))
    @settings(max_examples=200)
    def test_matches_numeric_oracle(self, p1, p2, d):
        x = QuadExt.make(*p1, d)
        y = QuadExt.make(*p2, d)
        product = x * y
        assert product.d == d
        assert abs(to_mp(product) - to_mp(x) * to_mp(y)) < mpmath.mpf("1e-40")

    def test_mixed_d_rejected(self):
        x = QuadExt.make(1, 1, 1, 5)
        y = QuadExt.make(1, 1, 1, 7)
        with pytest.raises(QFieldError):
            x * y

    def test_zero_equality_across_context(self):
        assert QuadExt.make(0, 0, 3, 5) == QuadExt.make(0, 0, 1, 5)

    def test_rational_of_another_radicand_rejected(self):
        # a field fixes its radicand once, so a rational carries it too
        x = QuadExt.make(3, 0, 2, 5)
        y = QuadExt.make(1, 1, 1, 7)
        for op in (lambda: x * y, lambda: y * x):
            with pytest.raises(QFieldError, match="mixed radicands"):
                op()

    def test_canonical_form(self):
        x = QuadExt.make(4, 2, 6, 5)
        assert (x.s, x.t, x.r) == (2, 1, 3)
        y = QuadExt.make(1, 1, 1, 12)  # radicand reduced to squarefree
        assert (y.s, y.t, y.d) == (1, 2, 3)

    def test_field_operations_skip_squarefree_decomposition(self, monkeypatch):
        # the radicand is reduced once, when the element enters through make
        x, y = QuadExt.make(3, -1, 2, 77), QuadExt.make(1, 2, 5, 77)
        monkeypatch.setattr(qfield, "squarefree_decompose", None)
        assert x * y == QuadExt(-151, 5, 10, 77)

    def test_operators_other_than_product_rejected(self):
        # QuadExt is a tuple: + and int * must not fall back to concatenation or repetition
        tau = tau_from_a(7)
        for op in (lambda: tau + tau, lambda: 2 * tau, lambda: tau * 2, lambda: tau + 1,
                   lambda: 1 + tau, lambda: tau - 1, lambda: -tau, lambda: tau / tau):
            with pytest.raises(TypeError):
                op()

    def test_tuple_operand_rejected(self):
        with pytest.raises(TypeError):
            tau_from_a(7) + (1, 0, 1, 77)


class TestFloor:
    """The floor of an irrational, which the `tau` command prints, is the
    first partial quotient."""

    @pytest.mark.parametrize("a", [1, 2, 7, 13])
    def test_floor_matches_numeric(self, a):
        tau = tau_from_a(a)
        assert next(_quotient_stream(tau)) == int(mpmath.floor(to_mp(tau)))
        minus_tau = QuadExt(-tau.s, -tau.t, tau.r, tau.d)
        assert next(_quotient_stream(minus_tau)) == int(mpmath.floor(-to_mp(tau)))

    @given(st.integers(-500, 500), NONZERO, st.integers(1, 40), st.sampled_from(SQUAREFREE))
    @settings(max_examples=200)
    def test_floor_bracketing(self, s, t, r, d):
        x = QuadExt.make(s, t, r, d)
        n = next(_quotient_stream(x))
        assert n <= exact(x) < n + 1


class TestQuotientStream:
    """The (P, Q) recurrence against the quotients that rationals bracketing
    x share (tests/oracles.py), which shares no logic with it.  Run under
    python -O as well."""

    @staticmethod
    def oracle(x, count=40):
        return bracketed_quotients(x, count)

    def test_tau_matches_bracketing_rationals(self):
        for a in range(1, 201):
            tau = tau_from_a(a)
            assert list(islice(_quotient_stream(tau), 40)) == self.oracle(tau), a

    @given(st.integers(-10**6, 10**6), NONZERO, st.integers(-10**4, 10**4).filter(bool),
           st.integers(2, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_random_irrationals_match_bracketing_rationals(self, s, t, r, d):
        assume(isqrt(d) ** 2 != d)
        x = QuadExt.make(s, t, r, d)
        assert list(islice(_quotient_stream(x), 40)) == self.oracle(x)

    def test_rational_rejected(self):
        with pytest.raises(QFieldError, match="irrational"):
            _quotient_stream(QuadExt.make(3, 0, 2, 5))

    def test_non_canonical_input_gives_the_same_quotients(self):
        # s, t and r share the factor 2: (2 + 2*sqrt(5))/2 is (1 + sqrt(5))/1
        assert list(islice(_quotient_stream(QuadExt(2, 2, 2, 5)), 40)) == \
            list(islice(_quotient_stream(QuadExt(1, 1, 1, 5)), 40)) == [3] + [4] * 39


def test_oracles_import_no_field_arithmetic():
    # the oracles state field facts through sympy and integers, so none
    # borrows the arithmetic that it checks
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    assert "valsweep.valuation.ValueElement" in names
    assert [name for name in names if (name + ".").startswith("valsweep.qfield.")] == []


def convergents(x, count):
    """(f_k, g_k) for k < count: the column that run k of `branch_runs`
    writes from the identity, column 2 on even k and column 1 on odd k."""
    return [(m[0][1 - k % 2], m[1][1 - k % 2])
            for k, _, m in islice(branch_runs(((1, 0), (0, 1)), x), count)]


class TestConvergents:
    """The convergents read off the run ends, as `convergents` reads them."""

    def test_paper_example_a7(self):
        assert convergents(tau_from_a(7), 4) == [(7, 1), (8, 1), (63, 8), (71, 9)]
        assert 63 * 9 - 71 * 8 == -1

    def test_golden_ratio(self):
        assert convergents(tau_from_a(1), 3) == [(1, 1), (2, 1), (3, 2)]

    def test_rejects_rational(self):
        with pytest.raises(QFieldError):
            next(branch_runs(((1, 0), (0, 1)), QuadExt.make(3, 0, 2, 5)))

    def test_partial_quotients_periodic(self):
        assert list(islice(_quotient_stream(tau_from_a(7)), 6)) == [7, 1, 7, 1, 7, 1]

    @pytest.mark.parametrize("count", [0, -1, -5])
    def test_no_count_is_rejected(self, capsys, count):
        assert main(["convergents", "--a", "7", "--steps", str(count)]) == 1
        assert capsys.readouterr() == (
            "", "error: violated constraint [steps >= 1]: steps must be positive\n")

    @pytest.mark.parametrize("a", [1, 3, 7, 13])
    def test_unimodularity_and_sandwich(self, a):
        x = tau_from_a(a)
        cs = convergents(x, 12)
        for k in range(1, len(cs)):
            eps = cs[k - 1][0] * cs[k][1] - cs[k][0] * cs[k - 1][1]
            assert eps in (-1, 1)
        signs = [sympy.sign(exact(x) * g - f) for f, g in cs]
        assert all(s != 0 for s in signs)
        assert all(signs[k] == -signs[k - 1] for k in range(1, len(signs)))

    def test_indices(self):
        runs = list(islice(branch_runs(((1, 0), (0, 1)), tau_from_a(7)), 5))
        assert [k for k, _, _ in runs] == list(range(5))
        assert [run for _, run, _ in runs] == [7, 1, 7, 1, 7]
