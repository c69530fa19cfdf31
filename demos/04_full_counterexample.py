"""End-to-end certification of the simultaneous-resolution obstruction.

Two monomial valuations nu_1, nu_2 on a power-series ring in two
variables share the same value group Z + Z tau but assign it different
indices q and p in their local charts.  Running quadratic transforms
along each valuation, every associated below-ring stays singular (its
exponent matrix keeps determinant -q or -p), and the induced cyclic
actions give local fundamental groups of conflicting prime orders.  No
single normal local ring can dominate both sequences.
"""

from valsweep.counterexample import (InstanceConfig, build, certify_conflict,
                                     singularity_sweep)
from valsweep.errors import Falsified

config = InstanceConfig(q=11, p=13, m=3, n=3, steps=25)
instance = build(config)
print("tau =", instance.tau, "  eps =", instance.epsilon)
for branch in instance.branches:
    print("branch matrix:", branch.matrix,
          " chart values:", [str(v.as_quadext()) for v in branch.chart_values])

# the sweep hands over each branch's walk of matrices; certify_conflict judges
# every one and returns the records with their verdicts (a Regular one would
# raise Falsified)
sweep = singularity_sweep(instance)
print("\nmatrices per walk:", [len(walk) for walk in sweep.walks])
records, orders = certify_conflict(sweep)
print("records:", len(records))
print("regular below-rings found:", sum(r.regular for r in records))
print("determinants seen:", sorted({r.det for r in records}))
print("\nlocal fundamental group orders:", orders)
print("conflict certified:", orders["nu1"] != orders["nu2"])

# the falsification channel: the judge records the identity at step 3 of nu1
try:
    certify_conflict(sweep, corrupt_step=3)
except Falsified as exc:
    print("corrupted sweep falsified:", exc)
    print("regular records:", [(r.branch, r.step) for r in exc.records if r.regular])
