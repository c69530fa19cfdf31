"""Independent checks of valsweep's JSON reports.

Nothing here imports valsweep.  Each check recomputes what the report
must contain from the command's inputs, with its own arithmetic, and
returns a list of problems (empty when the report is right).
"""

from __future__ import annotations

import json
from math import gcd


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def admissible_pairs(q_max: int) -> list[tuple[int, int]]:
    """Prime pairs (q, p) with 5 <= q < p < 2q - 4 and q <= q_max."""
    return [(q, p) for q in range(5, q_max + 1) if is_prime(q)
            for p in range(q + 1, 2 * q - 4) if is_prime(p)]


def hj_length(d: int, k: int) -> int:
    """Number of digits of the Hirzebruch-Jung expansion of d/k, 0 < k < d."""
    count = 0
    while k > 0:
        c = -(-d // k)
        d, k = k, c * k - d
        count += 1
    return count


def embedding_dim(matrix: list[list[int]]) -> int:
    """Hilbert-basis size of the cone dual to the primitive rows of matrix.

    The dual cone is spanned by the primitive normals u1 and u2 of the two
    rows; negating both leaves the cone's type unchanged, so the sign of
    det(A) can be ignored.  With D = |det(u1, u2)|, the unique k in [0, D)
    for which (k*u1 + u2)/D is a lattice point gives the type: the cone is
    cone((0, 1), (D, -k)) up to a unimodular map, whose Hilbert basis is
    the two rays plus one element per Hirzebruch-Jung digit of D/k.
    """
    rows = []
    for x, y in matrix:
        g = gcd(x, y)
        rows.append((x // g, y // g))
    (a, b), (c, d) = rows
    u1, u2 = (d, -c), (-b, a)
    big_d = abs(u1[0] * u2[1] - u1[1] * u2[0])
    if big_d == 1:
        return 2
    k = next(k for k in range(big_d)
             if (k * u1[0] + u2[0]) % big_d == 0 and (k * u1[1] + u2[1]) % big_d == 0)
    return 2 + hj_length(big_d, k)


def _parse(stdout: bytes) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _successors(matrix: list[list[int]]) -> list[list[list[int]]]:
    """The two matrices one column addition away: col 1 into col 2, or back."""
    (a, b), (c, d) = matrix
    return [[[a, a + b], [c, c + d]], [[a + b, b], [c + d, d]]]


def check_counterexample(stdout: bytes, q: int, p: int, m: int, n: int, steps: int,
                         corrupt_step: int | None = None) -> list[str]:
    rep, problems = _parse(stdout)
    if rep is None:
        return problems
    res = rep.get("results", {})
    if rep.get("command") != "counterexample":
        problems.append(f"command is {rep.get('command')!r}")
    if rep.get("inputs") != {"q": q, "p": p, "m": m, "n": n, "steps": steps}:
        problems.append(f"inputs echo {rep.get('inputs')}")
    records = res.get("steps", [])
    if len(records) != 2 * (steps + 1):
        problems.append(f"{len(records)} step records, expected {2 * (steps + 1)}")
        return problems
    for pos, rec in enumerate(records):
        branch, order = ("nu1", q) if pos <= steps else ("nu2", p)
        step = pos % (steps + 1)
        where = f"{branch} step {step}"
        if (rec.get("branch"), rec.get("step")) != (branch, step):
            problems.append(f"record {pos} is labelled {rec.get('branch')} step {rec.get('step')}")
        a = rec["A"]
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if (branch, step) == ("nu1", corrupt_step):
            # The injected matrix replaces the reported one only; the sweep
            # goes on from the true state, two additions past prev.
            if a != [[1, 0], [0, 1]] or rec.get("regularity") != "Regular":
                problems.append(f"{where}: injected identity not reported as Regular")
            expected = [m for s in expected for m in _successors(s)]
            continue
        if step == 0:
            if a != [[order - 4, order - 2], [2, 1]]:
                problems.append(f"{where}: initial matrix {a}")
        elif a not in expected:
            problems.append(f"{where}: not one column addition from the previous matrix")
        expected = _successors(a)
        if rec.get("det") != -order or det != -order:
            problems.append(f"{where}: det {rec.get('det')} (recomputed {det}), expected {-order}")
        if rec.get("regularity") != "Singular":
            problems.append(f"{where}: regularity {rec.get('regularity')}")
        if rec.get("embedding_dim") != embedding_dim(a):
            problems.append(f"{where}: embedding_dim {rec.get('embedding_dim')}, "
                            f"expected {embedding_dim(a)}")
    if corrupt_step is None:
        if rep.get("verdict") != "Verified":
            problems.append(f"verdict {rep.get('verdict')}")
        if res.get("pi1_orders") != {"nu1": q, "nu2": p}:
            problems.append(f"pi1_orders {res.get('pi1_orders')}")
        if res.get("conflict") is not True:
            problems.append("conflict is not true")
    else:
        if rep.get("verdict") != "Falsified":
            problems.append(f"verdict {rep.get('verdict')}")
        if f"branch nu1 step {corrupt_step}:" not in str(res.get("falsification")):
            problems.append(f"falsification {res.get('falsification')!r}")
    return problems


def invariant_monomials(order: int, a: int, b: int) -> tuple[list[list[int]], list[list[int]]]:
    """(full, minimal) invariant generators of Z_order acting with weights (a, b).

    Full: x^p, y^p and, for each 1 <= i < p, x^(p-i) y^j with the one
    0 < j <= p that makes the monomial invariant.  Minimal: the invariant
    monomials that are not a sum of two nonzero invariant monomials, found
    by checking, for every x-exponent below the candidate, the smallest
    invariant y-exponent.
    """
    full = {(order, 0), (0, order)}
    for i in range(1, order):
        full.add(next((order - i, j) for j in range(1, order + 1)
                      if (a * (order - i) + b * j) % order == 0))

    b_inv = pow(b, -1, order)

    def decomposable(g: tuple[int, int]) -> bool:
        for i in range(g[0] + 1):
            j = -a * i * b_inv % order
            if (i, j) == (0, 0):
                j = order
            if j <= g[1] and (i, j) != g:
                return True
        return False

    minimal = [g for g in full if not decomposable(g)]
    return sorted(map(list, full)), sorted(map(list, minimal))


def check_lemma5(stdout: bytes, order: int, a: int, b: int) -> list[str]:
    rep, problems = _parse(stdout)
    if rep is None:
        return problems
    res = rep.get("results", {})
    if rep.get("command") != "lemma5" or rep.get("verdict") != "Verified":
        problems.append(f"command {rep.get('command')!r}, verdict {rep.get('verdict')!r}")
    if rep.get("inputs") != {"order": order, "a": a, "b": b}:
        problems.append(f"inputs echo {rep.get('inputs')}")
    full, minimal = invariant_monomials(order, a, b)
    if res.get("full_generators") != full:
        problems.append("full generators differ from the p+1 invariant monomials")
    if res.get("minimal_generators") != minimal:
        problems.append(f"{len(res.get('minimal_generators', []))} minimal generators, "
                        f"expected {len(minimal)}")
    if res.get("pi1") != order:
        problems.append(f"pi1 {res.get('pi1')}, expected {order}")
    return problems
