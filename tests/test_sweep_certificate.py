"""The inductive sweep certificate against the direct per-step oracle.

`build` checks step 0 of each branch with `below_ring_regularity`, and
`certify_conflict` carries that verdict along every matrix of the sweep's
walks that is an elementary column operation on its predecessor.  These
tests rerun the direct check on every record the judge returns, break the
step on purpose, and rebuild each stepped state through the validating
constructor.  No check here is an
assert that python -O could drop from src; run this module under -O too.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import valsweep
from oracles import value_steps
from valsweep import counterexample, qfield, transform, valuation
from valsweep.cli import EXIT_CERTIFICATE, main
from valsweep.counterexample import (CertificationError, Falsified, InstanceConfig, build,
                                     certify_conflict, singularity_sweep)
from valsweep.qfield import tau_from_a
from valsweep.quotient import is_prime
from valsweep.toric import below_ring_regularity, det_int
from valsweep.transform import TransformState, branch_runs, branch_steps, run_sequence
from valsweep.valuation import ValueElement

SRC = Path(valsweep.__file__).resolve().parents[1]
IDENTITY = ((1, 0), (0, 1))

# every admissible prime pair with q <= 37, with m = n the least odd integer above p - q
PAIRS = [(q, p) for q in range(5, 38) if is_prime(q)
         for p in range(q + 1, 2 * q - 4) if is_prime(p)]


def sweep(q, p, steps, m=None):
    m = m or p - q + 1
    return singularity_sweep(build(InstanceConfig(q, p, m, m, steps)))


def assert_records_match_oracle(records):
    for rec in records:
        direct = below_ring_regularity(rec.matrix)
        assert (rec.det, rec.regular, rec.embedding_dim) == \
            (direct.det, direct.regular, direct.embedding_dim), (rec.branch, rec.step)


class TestAgainstDirectOracle:
    def test_batch_pairs(self):
        assert len(PAIRS) == 32
        for q, p in PAIRS:
            records, orders = certify_conflict(sweep(q, p, 60))
            assert orders == {"nu1": q, "nu2": p}
            assert len(records) == 2 * 61
            assert_records_match_oracle(records)

    def test_long_sweep(self):
        records, orders = certify_conflict(sweep(11, 13, 1000, m=3))
        assert orders == {"nu1": 11, "nu2": 13}
        assert_records_match_oracle(records)

    def test_corrupted_steps_keep_the_oracle(self):
        report = singularity_sweep(build(InstanceConfig(11, 13, 3, 3, 30)))
        for step in (0, 1, 7, 29, 30):
            with pytest.raises(Falsified) as exc:
                certify_conflict(report, corrupt_step=step)
            assert str(exc.value) == f"branch nu1 step {step}: ring below is regular"
            assert_records_match_oracle(exc.value.records)

    def test_direct_checks_are_one_per_branch(self, monkeypatch):
        calls = []
        real = counterexample.below_ring_regularity
        monkeypatch.setattr(counterexample, "below_ring_regularity",
                            lambda a: calls.append(a) or real(a))
        inst = build(InstanceConfig(11, 13, 3, 3, 40))
        # build judges step 0 of each branch; the sweep judges nothing, and the
        # judge only the identity that it records at corrupt_step
        assert calls == [b.matrix for b in inst.branches]
        assert [b.verdict for b in inst.branches] == [real(b.matrix) for b in inst.branches]
        calls.clear()
        report = singularity_sweep(inst)
        certify_conflict(report)
        assert calls == []
        with pytest.raises(Falsified):
            certify_conflict(report, corrupt_step=5)
        assert calls == [IDENTITY]


# Each forgery multiplies det by k in {2, 3, -3} < the order, so the forged
# matrix is no successor of its predecessor, and judged directly it is
# Singular (k |det| exceeds the product of the row contents) with |det| off
# the order.
FORGERIES = {"row 1 doubled": lambda m: ((2 * m[0][0], 2 * m[0][1]), m[1]),
             "row 2 tripled": lambda m: (m[0], (3 * m[1][0], 3 * m[1][1])),
             "column 1 doubled": lambda m: ((2 * m[0][0], m[0][1]), (2 * m[1][0], m[1][1])),
             "column 2 times -3": lambda m: ((m[0][0], -3 * m[0][1]), (m[1][0], -3 * m[1][1]))}


class TestForgedRecords:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PAIRS), st.integers(0, 30), st.sampled_from(sorted(FORGERIES)),
           st.data())
    def test_every_forged_field_fails_the_certificate(self, pair, steps, forgery, data):
        # the matrix is the one field a witness holds
        q, p = pair
        report = sweep(q, p, steps)
        assert certify_conflict(report)[1] == {"nu1": q, "nu2": p}
        branch = data.draw(st.integers(0, 1), label="branch")
        step = data.draw(st.integers(0, steps), label="step")
        walks = list(report.walks)
        walks[branch] = (*walks[branch][:step], FORGERIES[forgery](walks[branch][step]),
                         *walks[branch][step + 1:])
        with pytest.raises(CertificationError) as exc:
            certify_conflict(report._replace(walks=tuple(walks)))
        at, name = branch * (steps + 1) + step, ("nu1", "nu2")[branch]
        assert str(exc.value) == f"sweep record {at} is not {name} step {step}"

    def test_certificate_calls_the_direct_check_only_off_successors(self, monkeypatch):
        calls = []
        real = counterexample.below_ring_regularity
        monkeypatch.setattr(counterexample, "below_ring_regularity",
                            lambda a: calls.append(a) or real(a))
        # build judges each branch's step 0, and the judge nothing but the
        # identity that it records at corrupt_step
        inst = build(InstanceConfig(11, 13, 3, 3, 40))
        certify_conflict(singularity_sweep(inst))
        assert calls == [b.matrix for b in inst.branches]
        calls.clear()
        with pytest.raises(Falsified):
            certify_conflict(singularity_sweep(inst), corrupt_step=5)
        assert calls == [IDENTITY]


def doubling_step(step):
    """A broken step: the elementary column operation, then column 1 doubled,
    which is not unimodular and doubles |det|."""
    branch, ((a, b), (c, d)) = step
    return branch, ((2 * a, b), (2 * c, d))


class TestMutation:
    def test_non_unimodular_step_is_not_judged(self, monkeypatch):
        monkeypatch.setattr(counterexample, "branch_steps",
                            lambda a, x: map(doubling_step, branch_steps(a, x)))
        report = sweep(11, 13, 10, m=3)
        judged = []
        real = counterexample.below_ring_regularity
        monkeypatch.setattr(counterexample, "below_ring_regularity",
                            lambda a: judged.append((a, real(a))) or judged[-1][1])
        with pytest.raises(CertificationError) as exc:
            certify_conflict(report)
        assert str(exc.value) == "sweep record 1 is not nu1 step 1"
        # the doubled matrix is no successor, and the judge asks no layer about it
        assert judged == []
        assert abs(det_int(report.walks[0][1])) == 22

    def test_non_unimodular_step_exits_3(self, monkeypatch, capsys):
        # a |det| drift is a defect in valsweep, not a falsification
        monkeypatch.setattr(counterexample, "branch_steps",
                            lambda a, x: map(doubling_step, branch_steps(a, x)))
        code = main(["counterexample", "--q", "11", "--p", "13", "--steps", "10"])
        assert (code, capsys.readouterr()) == (
            EXIT_CERTIFICATE, ("", "error: certificate failed: sweep record 1 is not nu1 step 1\n"))

    def test_non_unimodular_step_under_optimize(self):
        script = (
            "from valsweep import counterexample as cx\n"
            "from valsweep.transform import branch_steps\n"
            "def broken(matrix, x):\n"
            "    for branch, ((a, b), (c, d)) in branch_steps(matrix, x):\n"
            "        yield branch, ((2 * a, b), (2 * c, d))\n"
            "cx.branch_steps = broken\n"
            "inst = cx.build(cx.InstanceConfig(11, 13, 3, 3, 10))\n"
            "try:\n"
            "    cx.certify_conflict(cx.singularity_sweep(inst))\n"
            "except cx.CertificationError as exc:\n"
            "    print(__debug__, exc)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False sweep record 1 is not nu1 step 1"


def transform_oracle(a, steps):
    """The JSON report of `transform --a a --steps steps`, with det_int of
    every matrix: the direct route that the successor check replaces."""
    states = [{"A": [[1, 0], [0, 1]], "branch": None, "det": 1, "step_index": 0}]
    step_pairs = itertools.islice(branch_steps(IDENTITY, tau_from_a(a)), steps)
    for k, (branch, m) in enumerate(step_pairs, 1):
        states.append({"A": [list(m[0]), list(m[1])], "branch": branch.value,
                       "det": det_int(m), "step_index": k})
    return json.dumps({"command": "transform", "inputs": {"a": a, "steps": steps},
                       "results": {"det_constant": all(state["det"] == 1 for state in states),
                                   "states": states},
                       "schema_version": "1.0", "verdict": "Verified"},
                      sort_keys=True, indent=2) + "\n"


def doubling_run(run):
    """A broken run: the shear, then column 1 doubled, which is not
    unimodular and doubles |det|."""
    k, a_k, ((a, b), (c, d)) = run
    return k, a_k, ((2 * a, b), (2 * c, d))


# the doubled column breaks the first run, states 1..7 of tau_from_a(7)
RUN_0_FAILS = "error: certificate failed: run 0 is not one shear of the matrix before it\n"


class TestTransformMutation:
    """`branch_steps` checks that each run of `transform`'s states is one
    shear of the state before it, so every det is 1; a run that is not one
    fails the certificate: exit 3, nothing on stdout."""

    def test_non_unimodular_step_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(transform, "branch_runs",
                            lambda a, x: map(doubling_run, branch_runs(a, x)))
        assert main(["transform", "--a", "7", "--steps", "40"]) == EXIT_CERTIFICATE
        assert capsys.readouterr() == ("", RUN_0_FAILS)

    def test_non_unimodular_step_under_optimize(self):
        script = (
            "import sys\n"
            "from valsweep import transform\n"
            "from valsweep.cli import main\n"
            "runs = transform.branch_runs\n"
            "def broken(matrix, x):\n"
            "    for k, a_k, ((a, b), (c, d)) in runs(matrix, x):\n"
            "        yield k, a_k, ((2 * a, b), (2 * c, d))\n"
            "transform.branch_runs = broken\n"
            "print('debug', __debug__, file=sys.stderr)\n"
            "sys.exit(main(['transform', '--a', '7', '--steps', '40']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_CERTIFICATE, "", "debug False\n" + RUN_0_FAILS)

    def test_report_matches_the_det_int_oracle(self, capsys):
        assert main(["transform", "--a", "7", "--steps", "1000"]) == 0
        assert capsys.readouterr().out == transform_oracle(7, 1000)


class TestSteppedStatesValidate:
    @pytest.mark.parametrize("a", [1, 2, 7, 30, 999979])
    def test_standard_valuation(self, a):
        tau = tau_from_a(a)
        initial = TransformState(((1, 0), (0, 1)), (ValueElement.make(0, 1, 1, tau),
                                                    ValueElement.make(1, 0, 1, tau)))
        for state in run_sequence(initial, 1000):
            assert TransformState(*state) == state

    @pytest.mark.parametrize("q, p", [(11, 13), (17, 23), (37, 67)])
    def test_instance_branches(self, q, p):
        for branch in build(InstanceConfig(q, p, p - q + 1, p - q + 1)).branches:
            for state in run_sequence(TransformState(branch.matrix, branch.chart_values), 300):
                assert TransformState(*state) == state


def branch_ratio(branch):
    """x = v(first)/v(second) for the chart values of a branch."""
    vx, vy = branch.chart_values
    return vx.ratio(vy)


class TestStepsAlongQuotientRuns:
    """`branch_steps`, which steps A along the partial quotients of the value
    ratio, against the oracle `value_steps`, which decides each step on the
    values."""

    @staticmethod
    def assert_steps_match_reference(branch, steps):
        production = list(itertools.islice(branch_steps(branch.matrix, branch_ratio(branch)),
                                           steps))
        reference = value_steps(TransformState(branch.matrix, branch.chart_values), steps)
        assert production == [(tag, a) for a, _, tag in reference[1:]], branch.name

    def test_every_pair_with_q_at_most_100(self):
        pairs = [(q, p) for q in range(5, 101) if is_prime(q)
                 for p in range(q + 1, 2 * q - 4) if is_prime(p)]
        assert len(pairs) == 191
        for q, p in pairs:
            for branch in build(InstanceConfig(q, p, p - q + 1, p - q + 1)).branches:
                self.assert_steps_match_reference(branch, 300)

    @pytest.mark.parametrize("q, p", [(11, 13), (17, 23), (97, 101), (991, 997)])
    def test_long_runs(self, q, p):
        inst = build(InstanceConfig(q, p, p - q + 1, p - q + 1, 2000))
        for branch in inst.branches:
            self.assert_steps_match_reference(branch, 2000)
        # the sweep's walks follow the same steps
        for branch, walk in zip(inst.branches, singularity_sweep(inst).walks):
            steps = branch_steps(branch.matrix, branch_ratio(branch))
            expected = [branch.matrix] + [a for _, a in itertools.islice(steps, 2000)]
            assert list(walk) == expected

    def test_no_field_arithmetic_per_step(self, monkeypatch, capsys):
        inst = build(InstanceConfig(11, 13, 3, 3, 1000))

        def refuse(*args):
            raise RuntimeError("field arithmetic on the verdict path")

        for module in (qfield, valuation):
            monkeypatch.setattr(module, "sign_of", refuse)
        assert certify_conflict(singularity_sweep(inst))[1] == {"nu1": 11, "nu2": 13}
        assert main(["transform", "--a", "7", "--steps", "1000"]) == 0
        for patched in (inst.tau.sign, inst.branches[0].chart_values[0].sign):
            with pytest.raises(RuntimeError):
                patched()
