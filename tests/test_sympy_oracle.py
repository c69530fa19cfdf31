"""Differential tests against sympy and mpmath, implementations that share no
code with valsweep: Smith invariants, continued fractions, squarefree parts and
signs in Q(tau)."""

import random
from itertools import islice
from math import isqrt

import pytest

from oracles import exact
from valsweep.counterexample import InstanceConfig, build
from valsweep.qfield import QuadExt, _quotient_stream, squarefree_decompose, tau_from_a
from valsweep.quotient import is_prime
from valsweep.toric import smith_normal_form
from valsweep.valuation import ValueElement


def test_smith_invariants_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(1, 3)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
        assert smith_normal_form(a).diagonal() == [abs(expected[i, i]) for i in range(n)], a


def test_partial_quotients_match_sympy():
    pytest.importorskip("sympy")
    from sympy.ntheory.continued_fraction import continued_fraction_periodic

    for a in range(1, 51):
        # tau = (a + sqrt(a^2 + 4a)) / 2
        terms = continued_fraction_periodic(a, 2, a * a + 4 * a)
        prefix, period = ((terms[:-1], terms[-1]) if isinstance(terms[-1], list)
                          else (terms, []))
        expected = (prefix + period * 24)[:24]
        assert list(islice(_quotient_stream(tau_from_a(a)), 24)) == expected, a


def test_branch_ratio_quotients_match_sympy():
    # the sweep steps along these quotients; q <= 19 keeps the test near 1 s
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.continued_fraction import continued_fraction

    pairs = [(q, p) for q in range(5, 20) if is_prime(q)
             for p in range(q + 1, 2 * q - 4) if is_prime(p)]
    assert len(pairs) == 10
    for q, p in pairs:
        for branch in build(InstanceConfig(q, p, p - q + 1, p - q + 1)).branches:
            vx, vy = branch.chart_values
            x = vx.ratio(vy)  # (s + t sqrt d) / r
            ratio = sympy.radsimp(exact(vx) / exact(vy))
            assert sympy.expand(exact(x) - ratio) == 0, (q, p, branch.name)
            terms = continued_fraction(ratio)
            prefix, period = ((terms[:-1], terms[-1]) if isinstance(terms[-1], list)
                              else (terms, []))
            expected = (prefix + period * 300)[:300]
            assert list(islice(_quotient_stream(x), 300)) == expected, (q, p, branch.name)


def test_squarefree_decompose_matches_factorint():
    sympy = pytest.importorskip("sympy")

    for n in range(1, 10 ** 4 + 1):
        t, d = 1, 1
        for prime, exp in sympy.factorint(n).items():
            t *= prime ** (exp // 2)
            d *= prime ** (exp % 2)
        assert squarefree_decompose(n) == (t, d), n



def test_sign_matches_mpmath():
    # `QuadExt.sign(i, j)`, the sign of i + j*x, is every sign the verdict path takes;
    # with |i|, |j| < 10^40, |i + j*x| is at least about 10^-40 even at a convergent
    # p_k/q_k of x, so mpmath at 200 digits decides each sign with digits to spare
    mpmath = pytest.importorskip("mpmath")
    fields = [tau_from_a(a) for a in (1, 7, 193, 10 ** 6)]
    for d in (77, 999999999989):  # the radicands of bench/series.py, and its two elements
        fields += [QuadExt.make(isqrt(d) + 1, -1, 3, d), QuadExt.make(2, 5, 7, d)]
    bound = 10 ** 40
    rng = random.Random(38)
    with mpmath.workdps(200):
        for x in fields:
            s, t, r, d = x
            value = (s + t * mpmath.sqrt(d)) / r
            draws = [rng.randrange(1 - bound, bound) for _ in range(300)]
            pairs = [(0, 0), *zip(draws[::3], draws[1::3]), *((0, j) for j in draws[2::6]),
                     *((i, 0) for i in draws[5::6])]
            p, q, p_prev, q_prev = 1, 0, 0, 1  # the convergents p_k/q_k from k = -1
            for quotient in _quotient_stream(x):
                p, q, p_prev, q_prev = quotient * p + p_prev, quotient * q + q_prev, p, q
                if max(abs(p), q) >= bound:
                    break
                pairs += [(-p, q), (p, -q), (1 - p, q)]
            for i, j in pairs:
                expected = i + j * value
                assert i == j == 0 or abs(expected) > mpmath.mpf(10) ** -100, (x, i, j)
                assert x.sign(i, j) == mpmath.sign(expected), (x, i, j)


# nu1 depends on q alone: tau is the positive root of t^2 = (q-4) t + (q-4)
# (tau_from_a(q - 4)), and these are its step-0 matrix and chart values
def nu1_matrix(q):
    return ((q - 4, q - 2), (2, 1))


def nu1_chart_values(q, tau):
    return (q - 2 - tau) / q, (4 - q + 2 * tau) / q


def test_nu1_closed_forms_hold_for_every_q():
    # proved as identities in a symbolic q, then matched against the code
    # for the primes q < 50
    sympy = pytest.importorskip("sympy")

    k = sympy.Symbol("k", nonnegative=True)  # q = k + 5 >= 5
    q, a = k + 5, k + 1  # a = q - 4 >= 1
    t = sympy.Symbol("t")
    assert sympy.expand(sympy.Matrix(nu1_matrix(q)).det()) == sympy.expand(-q)

    x1, y1 = nu1_chart_values(q, t)
    x = x1 / y1
    # x = [0; q-4, 1, q-4, 1, ...]: x = 1/((q-4) + 1/(1+x)) in Q(k)[t]/(t^2 - a t - a)
    numerator, _ = sympy.fraction(sympy.together(x - 1 / (a + 1 / (1 + x))))
    assert sympy.rem(sympy.expand(numerator), t ** 2 - a * t - a, t) == 0
    # with s = sqrt(a^2 + 4a) > 0 and t = (a + s)/2, x = (a + 4 - s)/(2s), so
    # x > 0 iff (a + 4)^2 > s^2, and x < 1 iff 9 s^2 > (a + 4)^2
    s = sympy.Symbol("s", positive=True)
    s2 = a ** 2 + 4 * a
    at_root = sympy.expand((t ** 2 - a * t - a).subs(t, (a + s) / 2))
    assert sympy.expand(at_root.subs(s ** 2, s2)) == 0  # (a + s)/2 is tau
    assert sympy.simplify(x.subs(t, (a + s) / 2) - (a + 4 - s) / (2 * s)) == 0
    assert sympy.expand((a + 4) ** 2 - s2).is_positive
    assert sympy.expand(9 * s2 - (a + 4) ** 2).is_positive

    for prime in (n for n in range(5, 50) if is_prime(n)):
        (a0, b0), (c0, d0) = nu1_matrix(prime)
        assert InstanceConfig(prime, prime + 2).chart_exponents()[0] == (a0, b0, c0, d0)
        tau = tau_from_a(prime - 4)
        x1 = ValueElement.make(prime - 2, -1, prime, tau)
        y1 = ValueElement.make(4 - prime, 2, prime, tau)
        closed = nu1_chart_values(prime, exact(tau))
        assert [sympy.expand(exact(v) - c) for v, c in zip((x1, y1), closed)] == [0, 0]
        assert list(islice(_quotient_stream(x1.ratio(y1)), 41)) == [0] + [prime - 4, 1] * 20
        partners = [p for p in range(prime + 1, 2 * prime - 4) if is_prime(p)]
        if partners:  # build needs an admissible pair; q = 5 and 7 have none
            m = partners[0] - prime + 1
            nu1 = build(InstanceConfig(prime, partners[0], m, m)).branches[0]
            assert nu1.matrix == nu1_matrix(prime)
            assert nu1.chart_values == (x1, y1)
