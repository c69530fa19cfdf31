"""Exact arithmetic with the quadratic irrational behind the sweep.

For a prime q > 3 set a = q - 4 and let tau be the positive root of
t^2 = a t + a.  Its continued fraction is [a; 1, a, 1, ...], so the
convergent pairs are unimodular and the fractional part eps = tau - a
lands in the open unit interval.  The convergents are read off the
quadratic transforms from the identity along tau: run k adds a_k times
one column into the other, and the column it writes is f_k/g_k.
Everything below is computed without floating point.
"""

from itertools import islice

from valsweep.qfield import tau_from_a
from valsweep.transform import branch_runs

tau = tau_from_a(7)  # q = 11
print("tau as (s + t sqrt(d)) / r:", tau)
print("minimal polynomial check: tau^2 - 7 tau - 7 =", tau * tau - tau * 7 - 7)

eps = tau - 7
print("eps = tau - 7 is positive:", eps.sign() > 0)
print("eps < 1:", (eps - 1).sign() < 0)

runs = list(islice(branch_runs(((1, 0), (0, 1)), tau), 8))  # (k, a_k, A after run k)
print("\npartial quotients:", [a for _, a, _ in runs])
print("convergents f/g with f - g*tau alternating in sign:")
for k, _, ((f1, f2), (g1, g2)) in runs:
    f, g = (f1, g1) if k % 2 else (f2, g2)  # column 2 on even k, column 1 on odd k
    sign = (f - tau * g).sign()
    print(f"  p={k}: {f}/{g}   sign(f - g tau) = {sign}")
