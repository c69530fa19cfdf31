"""Exact arithmetic with the quadratic irrational behind the sweep.

For a prime q > 3 set a = q - 4 and let tau be the positive root of
t^2 = a t + a.  Its continued fraction is [a; 1, a, 1, ...], so the
convergent pairs are unimodular and the fractional part eps = tau - a
lands in the open unit interval.  The convergents are read off the
quadratic transforms from the identity along tau: run k adds a_k times
one column into the other, and the column it writes is f_k/g_k.
Values are (i + j tau)/n, as `ValueElement`s; everything below is
computed without floating point.
"""

from itertools import islice

from valsweep.qfield import tau_from_a
from valsweep.transform import branch_runs
from valsweep.valuation import ValueElement

tau = tau_from_a(7)  # q = 11
print("tau as (s + t sqrt(d)) / r:", tau)


def value(i, j):
    return ValueElement.make(i, j, 1, tau)  # i + j tau


# tau^2 - 7 tau - 7 = 0 exactly when (tau - 7)(tau + 1) = tau
print("tau^2 - 7 tau - 7 = 0, as tau - 7 = tau/(tau + 1):",
      value(-7, 1).as_quadext() == value(0, 1).ratio(value(1, 1)))

eps = value(-7, 1)
print("eps = tau - 7 is positive:", eps.sign() > 0)
print("eps < 1:", (value(1, 0) - eps).sign() > 0)

runs = list(islice(branch_runs(((1, 0), (0, 1)), tau), 8))  # (k, a_k, A after run k)
print("\npartial quotients:", [a for _, a, _ in runs])
print("convergents f/g with f - g*tau alternating in sign:")
for k, _, ((f1, f2), (g1, g2)) in runs:
    f, g = (f1, g1) if k % 2 else (f2, g2)  # column 2 on even k, column 1 on odd k
    sign = value(f, -g).sign()
    print(f"  p={k}: {f}/{g}   sign(f - g tau) = {sign}")
