"""Scaling series: one layer call timed at growing sizes, so growth rates show.

    PYTHONPATH=src python3 bench/series.py

Prints one JSON object mapping metric name to seconds.  Runs in a fresh
process, so valsweep's caches start empty as they do for a user.
"""

import json
import statistics
import time
from math import isqrt

from valsweep.qfield import QuadExt, tau_from_a
from valsweep.quotient import DiagonalAction, invariant_generators
from valsweep.toric import below_ring_regularity
from valsweep.transform import TransformState, run_sequence
from valsweep.valuation import ValueElement

REGULARITY_DETS = (13, 101, 197, 401, 1009)
SEQUENCE_STEPS = (1000, 3000, 10000)
LEMMA5_ORDERS = (13, 101, 211, 401)
# 77 = 7^2 + 4*7 is the radicand of tau for a = 7, as in (q, p) = (11, 13);
# 999999999989 is a prime near 1e12.
RADICANDS = (77, 999999999989)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def per_op(fn, batch_s=0.01, batches=5) -> float:
    """Median over batches of the time of one call of fn."""
    n = 1
    while timed(lambda: [fn() for _ in range(n)]) < batch_s:
        n *= 2
    return statistics.median(timed(lambda: [fn() for _ in range(n)]) / n
                             for _ in range(batches))


def main() -> None:
    out = {}
    for n in REGULARITY_DETS:
        step0 = ((n - 4, n - 2), (2, 1))  # the instance's step-0 matrix, det -n
        out[f"toric.regularity_s.det{n}"] = timed(lambda: below_ring_regularity(step0))
    for p in LEMMA5_ORDERS:
        action = DiagonalAction(p, 1, 2)
        out[f"quotient.invariant_generators_s.p{p}"] = timed(lambda: invariant_generators(action))
    for d in RADICANDS:
        x = QuadExt.make(isqrt(d) + 1, -1, 3, d)  # opposite signs: sign compares squares
        y = QuadExt.make(2, 5, 7, d)
        out[f"qfield.mul_s.d{d}"] = per_op(lambda: x * y)
        out[f"qfield.sign_s.d{d}"] = per_op(x.sign)
    tau = tau_from_a(7)
    initial = TransformState(((1, 0), (0, 1)),
                             (ValueElement.make(0, 1, 1, tau), ValueElement.make(1, 0, 1, tau)))
    for steps in SEQUENCE_STEPS:
        out[f"transform.run_sequence_s.steps{steps}"] = timed(lambda: run_sequence(initial, steps))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
