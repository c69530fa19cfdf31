"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; all tolerances are exact (integer or sign-test) except the stated
runtime budgets.
"""

import itertools
import json
import random
import time

from oracles import (adjugate, brute_force_invariants, convergent_parameters,
                     enumerated_hilbert_basis, is_invariant, matmul, semigroup_contains,
                     smith_adjugate, value_steps)
from valsweep.cli import EXIT_FALSIFIED, main
from valsweep.counterexample import InstanceConfig, build, certify_conflict, singularity_sweep
from valsweep.qfield import _quotient_stream, tau_from_a
from valsweep.quotient import (DiagonalAction,
                               invariant_generators, is_prime, pi1_order,
                               ramification_minors)
from valsweep.toric import (below_ring_regularity, det_int, dual_cone_2d, primitive,
                            smith_normal_form)
from valsweep.transform import TransformState, branch_steps
from valsweep.valuation import ValueElement, group_index


def report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _sweep_criterion(q: int, p: int, m: int, n: int, steps: int) -> float:
    start = time.monotonic()
    inst = build(InstanceConfig(q=q, p=p, m=m, n=n, steps=steps))
    rep = singularity_sweep(inst)
    assert certify_conflict(rep) == {"nu1": q, "nu2": p}
    assert len(rep.records) == 2 * (steps + 1)
    for rec in rep.records:
        assert not rec.regular
        assert abs(rec.det) == (q if rec.branch == "nu1" else p)
    code = main(["counterexample", "--q", str(q), "--p", str(p),
                 "--m", str(m), "--n", str(n), "--steps", str(steps)])
    assert code == 0
    return time.monotonic() - start


def test_criterion_1_sweep_q11_p13(capsys):
    elapsed = _sweep_criterion(11, 13, 3, 3, 25)
    with capsys.disabled():
        report(1, elapsed < 5.0,
               f"(q,p)=(11,13) sweep: 52 singular steps, |det| 11/13, "
               f"exit 0, {elapsed:.2f}s < 5s")


def test_criterion_2_sweep_q17_p23(capsys):
    elapsed = _sweep_criterion(17, 23, 7, 7, 25)
    with capsys.disabled():
        report(2, elapsed < 5.0,
               f"(q,p)=(17,23) sweep: same verdicts, {elapsed:.2f}s < 5s")


def test_criterion_3_epsilon_window(capsys):
    ok = True
    for q in range(5, 51):
        if not is_prime(q):
            continue
        eps = tau_from_a(q - 4) - (q - 4)
        ok = ok and eps.sign() > 0 and (eps - 1).sign() < 0
    with capsys.disabled():
        report(3, ok, "epsilon in (0,1) exactly for every prime 5 <= q <= 50")


def test_criterion_4_positivity_ledger(capsys):
    ok = True
    for q, p in ((11, 13), (17, 23)):
        tau = tau_from_a(q - 4)
        # each displayed value equated against both of its printed forms:
        # (q-2-tau)/q = (2-eps)/q, (4+2tau-q)/q = (q-4+2eps)/q, and the
        # p-branch analogues with tau = q-4+eps substituted
        pairs = [
            (ValueElement.make(q - 2, -1, q, tau),
             ValueElement.make(2 + (q - 4), -1, q, tau)),      # (2-eps)/q
            (ValueElement.make(4 - q, 2, q, tau),
             ValueElement.make(q - 4 - 2 * (q - 4), 2, q, tau)),  # (q-4+2eps)/q
            (ValueElement.make(p - 2, -1, p, tau),
             ValueElement.make((p - q) + 2 + (q - 4), -1, p, tau)),
            (ValueElement.make(4 - p, 2, p, tau),
             ValueElement.make(2 * q - p - 4 - 2 * (q - 4), 2, p, tau)),
        ]
        for lhs, rhs in pairs:
            ok = ok and lhs == rhs and lhs.sign() > 0
    with capsys.disabled():
        report(4, ok, "four chart values match both printed forms and are positive")


def test_criterion_5_value_group_indices(capsys):
    ok = True
    for q, p in ((11, 13), (17, 23)):
        tau = tau_from_a(q - 4)
        base = (ValueElement.make(0, 1, 1, tau), ValueElement.make(1, 0, 1, tau))
        for order, mat in ((q, ((q - 4, q - 2), (2, 1))),
                           (p, ((p - 4, p - 2), (2, 1)))):
            chart = (ValueElement.make(order - 2, -1, order, tau),
                     ValueElement.make(4 - order, 2, order, tau))
            idx = group_index(base, chart)
            snf = smith_normal_form(mat).quotient_invariants()
            ok = ok and idx == order and snf == [order]
    with capsys.disabled():
        report(5, ok, "group_index and Smith form independently give Z_q and Z_p")


def test_criterion_6_lemma5_suite(capsys):
    start = time.monotonic()
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        for a, b in itertools.product(range(p), repeat=2):
            if (a, b) == (0, 0):
                continue
            action = DiagonalAction(p, a, b)
            full, minimal = invariant_generators(action)
            gens = tuple(minimal)
            ok = ok and all(semigroup_contains(gens, mono)
                            for mono in brute_force_invariants(action, 2 * p))
            ok = ok and all(is_invariant(action, *g) for g in full)
            regular = a == 0 or b == 0
            ok = ok and regular == (len(minimal) == 2)
            order = pi1_order(action)
            ok = ok and order == (1 if regular else p)
            if not regular:
                wit = ramification_minors(action)
                jmap = action.weight_map()
                i_1 = next(i for i, j in jmap.items() if j == 1)
                ok = ok and wit.y_witness == (0, p - 1 + jmap[p - 1])
                ok = ok and wit.x_witness == (2 * p - 1 - i_1, 0)
                ok = ok and wit.coefficient == p
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    with capsys.disabled():
        report(6, ok, f"exhaustive cyclic-quotient suite, {elapsed:.2f}s < 10s")


def test_criterion_7_oracle_equivalence(capsys):
    start = time.monotonic()
    ok = True
    count = 0
    oracle_sizes: dict[tuple, int] = {}
    for a, b, c, d in itertools.product(range(11), repeat=4):
        if a * d - b * c == 0:
            continue
        verdict = below_ring_regularity([[a, b], [c, d]])
        rays = dual_cone_2d((primitive((a, b)), primitive((c, d))))
        if rays not in oracle_sizes:
            oracle_sizes[rays] = len(enumerated_hilbert_basis(rays).generators)
        ok = ok and verdict.embedding_dim == oracle_sizes[rays]
        ok = ok and verdict.regular == (verdict.embedding_dim == 2)
        count += 1
    elapsed = time.monotonic() - start
    ok = ok and count == 13922 and elapsed < 30.0
    with capsys.disabled():
        report(7, ok, f"Hirzebruch-Jung embedding dimension matches the enumeration "
                      f"oracle and the determinant criterion on {count} matrices, "
                      f"{elapsed:.2f}s < 30s")


def test_criterion_8_continued_fraction_crosscheck(capsys):
    tau = tau_from_a(7)
    initial = TransformState(((1, 0), (0, 1)),
                             (ValueElement.make(0, 1, 1, tau),
                              ValueElement.make(1, 0, 1, tau)))
    run_ends = list(itertools.accumulate(itertools.islice(_quotient_stream(tau), 11)))
    walk = list(itertools.islice(branch_steps(initial.a, tau), run_ends[-1]))
    tags = [branch for branch, _ in walk[:40]]
    ok = tags == [branch for _, _, branch in value_steps(initial, 40)[1:]]
    runs = [len(list(run)) for _, run in itertools.groupby(tags)]
    quotients = list(itertools.islice(_quotient_stream(tau), len(runs)))
    ok = ok and runs[:-1] == quotients[:len(runs) - 1] and runs[-1] <= quotients[len(runs) - 1]
    # at the end of run k the columns of A are the convergents k and k - 1
    for k in range(1, 11):
        matrix = walk[run_ends[k] - 1][1]
        (g1, g0), (f1, f0) = convergent_parameters(tau, k)
        ok = ok and {(matrix[0][0], matrix[1][0]), (matrix[0][1], matrix[1][1])} == \
            {(f1, g1), (f0, g0)}
        ok = ok and det_int(matrix) in (-1, 1)
    with capsys.disabled():
        report(8, ok, "40-step branch tags RLE to the partial quotients; "
                      "convergent matrices unimodular")


def test_criterion_9_power_identity_random(capsys):
    rng = random.Random(2024)
    ok = True
    count = 0
    while count < 200:
        n = rng.randint(1, 3)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det_int(m) == 0:
            continue
        # adj(A) = det(A) V D^-1 U from the certified Smith form, against cofactors
        det, adj = smith_adjugate(m)
        ok = ok and det == det_int(m) and adj == adjugate(m)
        ok = ok and matmul(adj, m) == [[det * (i == j) for j in range(n)] for i in range(n)]
        count += 1
    with capsys.disabled():
        report(9, ok, "adjugate power identity certified on 200 random matrices")


def test_criterion_10_falsification_channel(capsys):
    code = main(["counterexample", "--q", "11", "--p", "13", "--steps", "5",
                 "--corrupt-step", "2"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    ok = (code == EXIT_FALSIFIED and payload["verdict"] == "Falsified"
          and "regular" in payload["results"]["falsification"])
    with capsys.disabled():
        report(10, ok, "corrupted sweep state exits 2 with a falsification report")
