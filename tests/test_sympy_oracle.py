"""Differential tests against sympy, an implementation that shares no code
with valsweep: Smith invariants, continued fractions and squarefree parts."""

import random
from itertools import islice

import pytest

from valsweep.counterexample import InstanceConfig, build
from valsweep.qfield import _quotient_stream, squarefree_decompose, tau_from_a
from valsweep.quotient import is_prime
from valsweep.toric import smith_normal_form


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
    pytest.importorskip("sympy")
    from sympy.ntheory.continued_fraction import continued_fraction_periodic

    pairs = [(q, p) for q in range(5, 20) if is_prime(q)
             for p in range(q + 1, 2 * q - 4) if is_prime(p)]
    assert len(pairs) == 10
    for q, p in pairs:
        for branch in build(InstanceConfig(q, p, p - q + 1, p - q + 1)).branches:
            vx, vy = branch.chart_values
            x = vx.as_quadext() / vy.as_quadext()  # (s + t sqrt d) / r
            terms = continued_fraction_periodic(x.s, x.r, x.d, x.t)
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
