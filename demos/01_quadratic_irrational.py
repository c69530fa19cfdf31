"""Exact arithmetic with the quadratic irrational behind the sweep.

For a prime q > 3 set a = q - 4 and let tau be the positive root of
t^2 = a t + a.  Its continued fraction is [a; 1, a, 1, ...], so the
convergent pairs are unimodular and the fractional part eps = tau - a
lands in the open unit interval.  Everything below is computed without
floating point.
"""

from valsweep.qfield import iter_convergents, tau_from_a

tau = tau_from_a(7)  # q = 11
print("tau as (s + t sqrt(d)) / r:", tau)
print("minimal polynomial check: tau^2 - 7 tau - 7 =", tau * tau - tau * 7 - 7)

eps = tau - 7
print("eps = tau - 7 is positive:", eps.sign() > 0)
print("eps < 1:", (eps - 1).sign() < 0)

convergents = list(iter_convergents(tau, 8))  # (partial quotient, convergent) pairs
print("\npartial quotients:", [a for a, _ in convergents])
print("convergents f/g with f - g*tau alternating in sign:")
for _, c in convergents:
    sign = (c.f - tau * c.g).sign()
    print(f"  p={c.index}: {c.f}/{c.g}   sign(f - g tau) = {sign}")
