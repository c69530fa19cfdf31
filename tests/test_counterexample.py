import contextlib
import functools
import inspect
import io
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import adjugate_diagonal_action, exact
import valsweep
from valsweep import counterexample, toric, transform, valuation
from valsweep.cli import EXIT_CERTIFICATE, main
from valsweep.counterexample import (CertificationError, ConfigError, Falsified,
                                     InstanceConfig, SweepReport, build, certify_conflict,
                                     derive_diagonal_action, singularity_sweep)
from valsweep.qfield import QuadExt, tau_from_a
from valsweep.quotient import DiagonalAction, is_prime
from valsweep.toric import det_int
from walk_faults import STATE_FORGES, quotient_off, steps_forged, turned


class TestConfig:
    def test_paper_pair_accepted(self):
        InstanceConfig(q=11, p=13, m=3, n=3).validate()

    def test_second_pair_accepted(self):
        InstanceConfig(q=17, p=23, m=7, n=7).validate()

    def test_window_violation_rejected(self):
        with pytest.raises(ConfigError) as exc:
            InstanceConfig(q=11, p=19, m=9, n=9).validate()
        assert "2q-4" in exc.value.constraint

    def test_small_m_rejected(self):
        with pytest.raises(ConfigError):
            InstanceConfig(q=11, p=13, m=1, n=3).validate()

    def test_small_n_rejected(self):
        with pytest.raises(ConfigError) as exc:
            InstanceConfig(q=11, p=13, m=3, n=1).validate()
        assert exc.value.constraint == "n > max(|b1-b2|, |d1-d2|)"

    def test_even_m_rejected(self):
        with pytest.raises(ConfigError):
            InstanceConfig(q=11, p=13, m=4, n=3).validate()

    def test_equal_primes_rejected(self):
        with pytest.raises(ConfigError):
            InstanceConfig(q=11, p=11, m=3, n=3).validate()

    @pytest.mark.parametrize("q, p, constraint", [(99991, 100003, "p <= 100000"),
                                                  (10 ** 30 + 57, 10 ** 30 + 63, "q <= 100000")])
    def test_order_cap_before_trial_division(self, q, p, constraint):
        # the induced cyclic actions have orders q and p, capped in quotient
        with pytest.raises(ConfigError) as exc:
            InstanceConfig(q=q, p=p, m=13, n=13).validate()
        assert exc.value.constraint == constraint


class TestBuild:
    def test_q11_p13(self):
        inst = build(InstanceConfig(q=11, p=13))
        assert inst.tau == QuadExt(7, 1, 2, 77)
        b1, b2 = inst.branches
        assert b1.matrix == ((7, 9), (2, 1))
        assert b2.matrix == ((9, 11), (2, 1))
        assert all(v.sign() > 0 for v in b1.chart_values + b2.chart_values)

    def test_q17_p23(self):
        inst = build(InstanceConfig(q=17, p=23, m=7, n=7))
        assert inst.branches[0].matrix == ((13, 15), (2, 1))
        assert inst.branches[1].matrix == ((19, 21), (2, 1))

    def test_epsilon_in_unit_interval(self):
        inst = build(InstanceConfig(q=11, p=13))
        assert 0 < exact(inst.epsilon) < 1
        assert (exact(inst.epsilon) - (exact(inst.tau) - 7)).expand() == 0

    def test_epsilon_window_all_primes(self):
        for q in range(5, 51):
            if not is_prime(q):
                continue
            assert 0 < exact(tau_from_a(q - 4)) - (q - 4) < 1

    def test_defining_relations_hold(self):
        # x1 + z = v and 2 z - v = y1 at value level, checked in build
        build(InstanceConfig(q=11, p=13))

    @pytest.mark.parametrize("config", [InstanceConfig(11, 13), InstanceConfig(17, 23, 7, 7)])
    def test_build_keeps_charts_and_actions(self, config):
        inst = build(config)
        # each chart's exponents plus its corrections are the other's shifted by (m, n)
        (e1, e2), shift = config.chart_exponents(), (config.m, config.n) * 2
        assert [chart.chart for chart in inst.charts] == ["P1", "P2"]
        for chart, own, other in zip(inst.charts, (e1, e2), (e2, e1)):
            corrections = chart.u_correction + chart.v_correction
            assert [o + c for o, c in zip(own, corrections)] == \
                [t + s for t, s in zip(other, shift)]
        for branch in inst.branches:
            assert branch.action == derive_diagonal_action(branch.matrix)
            assert branch.action.order == branch.order


class TestSurface:
    def test_q11_p13_corrections(self):
        charts = build(InstanceConfig(q=11, p=13, m=3, n=3)).charts
        p1, p2 = charts
        assert (p1.u_correction, p1.v_correction) == ((5, 5), (3, 3))
        assert (p2.u_correction, p2.v_correction) == ((1, 1), (3, 3))

    def test_q17_p23_corrections(self):
        charts = build(InstanceConfig(q=17, p=23, m=7, n=7)).charts
        p1, _ = charts
        assert (p1.u_correction, p1.v_correction) == ((13, 13), (7, 7))

    def test_too_small_m_rejected_at_config(self):
        with pytest.raises(ConfigError):
            build(InstanceConfig(q=11, p=13, m=1, n=3))

    def test_corrections_positive_over_the_window(self):
        # the bounds validate puts on m and n alone make every correction
        # positive, so build needs no check of its own
        pairs = [(q, p) for q in range(5, 101) if is_prime(q)
                 for p in range(q + 1, 2 * q - 4) if is_prime(p)]
        assert len(pairs) == 191
        for q, p in pairs:
            least = next(m for m in itertools.count(1, 2) if admissible(q, p, m))
            assert not admissible(q, p, least - 2)
            for m in (least, least + 2):
                for chart in build(InstanceConfig(q, p, m, m)).charts:
                    assert min(chart.u_correction + chart.v_correction) > 0, (q, p, m, chart)


def admissible(q: int, p: int, m: int) -> bool:
    """Whether m = n passes InstanceConfig.validate for (q, p)."""
    try:
        InstanceConfig(q, p, m, m).validate()
    except ConfigError:
        return False
    return True


class TestSweep:
    def test_q11_p13_full(self):
        inst = build(InstanceConfig(q=11, p=13))
        records, orders = certify_conflict(singularity_sweep(inst))
        assert orders == {"nu1": 11, "nu2": 13}
        assert len(records) == 52
        for rec in records:
            assert not rec.regular
            assert rec.embedding_dim >= 3
            assert abs(rec.det) == (11 if rec.branch == "nu1" else 13)

    def test_step_zero_only(self):
        inst = build(InstanceConfig(q=11, p=13, steps=0))
        records, orders = certify_conflict(singularity_sweep(inst))
        assert [r.det for r in records] == [-11, -13]
        assert orders == {"nu1": 11, "nu2": 13}

    def test_step_one_matrix(self):
        inst = build(InstanceConfig(q=11, p=13, steps=1))
        nu1, _ = singularity_sweep(inst).walks
        assert nu1 == (((7, 9), (2, 1)), ((16, 9), (3, 1)))

    def test_falsification_injection(self):
        inst = build(InstanceConfig(q=11, p=13, steps=5))
        report = singularity_sweep(inst)
        with pytest.raises(Falsified) as exc:
            certify_conflict(report, corrupt_step=3)
        assert str(exc.value) == "branch nu1 step 3: ring below is regular"

    @pytest.mark.parametrize("step", [-1, 6])
    def test_corrupt_step_outside_sweep_rejected(self, step):
        # the library keeps the range the CLI reports: steps 0..config.steps
        with pytest.raises(ConfigError) as exc:
            certify_conflict(singularity_sweep(build(InstanceConfig(q=11, p=13, steps=5))),
                             corrupt_step=step)
        assert (exc.value.constraint, str(exc.value)) == (
            "0 <= corrupt-step <= steps", f"--corrupt-step {step} is outside the swept steps 0..5")

    @pytest.mark.parametrize("steps", [0, 7])
    def test_length_is_config_steps(self, steps):
        sweep = singularity_sweep(build(InstanceConfig(11, 13, steps=steps)))
        assert [len(walk) for walk in sweep.walks] == [steps + 1] * 2
        records, _ = certify_conflict(sweep)
        assert [(r.branch, r.step) for r in records] == [
            (name, step) for name in ("nu1", "nu2") for step in range(steps + 1)]

    def test_negative_length_rejected_by_build(self):
        with pytest.raises(ConfigError) as exc:
            build(InstanceConfig(11, 13, steps=-1))
        assert (exc.value.constraint, str(exc.value)) == ("steps >= 0",
                                                          "steps must be nonnegative")


class TestContradiction:
    def test_q11_p13(self):
        inst = build(InstanceConfig(q=11, p=13))
        assert certify_conflict(singularity_sweep(inst))[1] == {"nu1": 11, "nu2": 13}

    def test_q17_p23(self):
        inst = build(InstanceConfig(q=17, p=23, m=7, n=7, steps=10))
        assert certify_conflict(singularity_sweep(inst))[1] == {"nu1": 17, "nu2": 23}

    def test_certify_conflict_on_a_finished_sweep(self):
        # the orders come from the actions build derived, whatever the sweep's length
        for steps in (0, 5):
            inst = build(InstanceConfig(q=11, p=13, steps=steps))
            assert certify_conflict(singularity_sweep(inst))[1] == {"nu1": 11, "nu2": 13}

    def test_certify_conflict_rejects_falsified_sweep(self):
        inst = build(InstanceConfig(q=11, p=13, steps=5))
        sweep = singularity_sweep(inst)
        with pytest.raises(Falsified) as exc:
            certify_conflict(sweep, corrupt_step=3)
        assert str(exc.value) == "branch nu1 step 3: ring below is regular"

    def test_certify_conflict_reads_build_and_calls_no_toric(self, monkeypatch):
        inst = build(InstanceConfig(q=11, p=13, steps=5))
        sweep = singularity_sweep(inst)

        def refuse(*args, **kwargs):
            raise RuntimeError("certify_conflict called into valsweep.toric")

        for module in (toric, counterexample):
            for name, value in vars(module).items():
                if callable(value) and getattr(value, "__module__", None) == toric.__name__:
                    monkeypatch.setattr(module, name, refuse)
        assert certify_conflict(sweep)[1] == {"nu1": 11, "nu2": 13}

    def test_regular_verdict_fails_the_cross_route_check(self):
        # the Hirzebruch-Jung side of the check, on an instance whose step-0
        # verdict was replaced after a verified sweep
        inst = build(InstanceConfig(q=11, p=13, steps=5))
        sweep = singularity_sweep(inst)
        nu1, nu2 = inst.branches
        broken = inst._replace(branches=(nu1._replace(verdict=nu1.verdict._replace(regular=True)),
                                         nu2))
        with pytest.raises(CertificationError, match=re.escape(
                "branch nu1: pi1 order 11 by the Smith form, 1 by Hirzebruch-Jung, expected 11")):
            certify_conflict(sweep._replace(instance=broken))


# Sweeps whose walks are not their instance's: (the sweep's maker, the CertificationError's message)
def no_records():
    return SweepReport(build(InstanceConfig(17, 23, 7, 7, 0)), ())


def another_instances_records():
    sweep = singularity_sweep(build(InstanceConfig(11, 13, 3, 3, 5)))
    return sweep._replace(instance=build(InstanceConfig(17, 23, 7, 7, 5)))


def nu2_shifted_by_one_step():
    nu1, nu2 = singularity_sweep(build(InstanceConfig(11, 13, 3, 3, 6))).walks
    sweep = singularity_sweep(build(InstanceConfig(11, 13, 3, 3, 5)))
    return sweep._replace(walks=(nu1[:6], nu2[1:]))


def nu1_starts_one_step_late():
    # nu1's step 0 holds its step-1 matrix, which carries step 0's verdict
    sweep = singularity_sweep(build(InstanceConfig(11, 13, 3, 3, 5)))
    nu1, nu2 = sweep.walks
    return sweep._replace(walks=(nu1[1:2] + nu1[1:], nu2))


FOREIGN_SWEEPS = [(no_records, "sweep walks hold [] matrices, expected two walks of 1"),
                  (another_instances_records, "nu1 walk: matrix 0 is not the branch matrix"),
                  (nu2_shifted_by_one_step, "nu2 walk: matrix 0 is not the branch matrix"),
                  (nu1_starts_one_step_late, "nu1 walk: matrix 0 is not the branch matrix")]


class TestSweepCarriesItsInstance:
    def test_one_argument_and_no_defaults(self):
        # the witness holds only walks: the judge takes the probe step itself
        assert SweepReport._fields == ("instance", "walks")
        assert SweepReport._field_defaults == {}
        with pytest.raises(TypeError):
            SweepReport(())
        inst = build(InstanceConfig(11, 13, 3, 3, 5))
        with pytest.raises(TypeError):
            SweepReport(inst, singularity_sweep(inst).walks, 4)
        assert singularity_sweep(inst).instance is inst
        with pytest.raises(TypeError):
            singularity_sweep(inst, 4)
        assert list(inspect.signature(singularity_sweep).parameters) == ["instance"]
        assert list(inspect.signature(certify_conflict).parameters) == ["sweep", "corrupt_step"]
        assert inspect.signature(certify_conflict).parameters["corrupt_step"].default is None

    @pytest.mark.parametrize("foreign, message", FOREIGN_SWEEPS,
                             ids=[foreign.__name__ for foreign, _ in FOREIGN_SWEEPS])
    def test_foreign_records_fail_the_certificate(self, foreign, message):
        with pytest.raises(CertificationError) as exc:
            certify_conflict(foreign())
        assert str(exc.value) == message

    def test_foreign_records_fail_under_optimize(self):
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "from test_counterexample import FOREIGN_SWEEPS, certify_conflict\n"
                  "for foreign, message in FOREIGN_SWEEPS:\n"
                  "    try:\n"
                  "        certify_conflict(foreign())\n"
                  "    except Exception as exc:\n"
                  "        print(__debug__, type(exc).__name__, exc)\n")
        src = Path(valsweep.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"False CertificationError {message}"
                                            for _, message in FOREIGN_SWEEPS]


IDENTITY = ((1, 0), (0, 1))


def replaced(walk, step, change):
    """The walk with its matrix at `step` replaced by `change` of it."""
    return walk[:step] + (change(walk[step]),) + walk[step + 1:]


def column_1_doubled(matrix):
    """A non-successor of any predecessor of the same det: |det| doubles."""
    (a, b), (c, d) = matrix
    return (2 * a, b), (2 * c, d)


def regular_in_the_middle():
    """(message, records) of a clean (11, 13) sweep judged with corrupt_step=3,
    and the records of the same sweep judged without it, with the identity's
    Regular record put in at nu1 step 3."""
    sweep = singularity_sweep(build(InstanceConfig(11, 13, 3, 3, 25)))
    clean, _ = certify_conflict(sweep)
    try:
        certify_conflict(sweep, corrupt_step=3)
    except Falsified as exc:
        message, records = str(exc), exc.records
    corrupted = clean[:3] + (clean[3]._replace(matrix=IDENTITY, det=1, regular=True,
                                               embedding_dim=2),) + clean[4:]
    return message, records, corrupted


class TestRecordsAreJudged:
    """`certify_conflict` judges every matrix of the walks, and the
    falsification is read off its records, after all of them are checked."""

    def test_identity_marked_regular_is_the_corrupted_run(self):
        message, records, corrupted = regular_in_the_middle()
        assert message == "branch nu1 step 3: ring below is regular"
        assert records == corrupted
        assert records[3] == ("nu1", 3, IDENTITY, 1, True, 2)
        assert [r.regular for r in records].count(True) == 1

    def test_identity_marked_regular_under_optimize(self):
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "from test_counterexample import regular_in_the_middle\n"
                  "message, records, corrupted = regular_in_the_middle()\n"
                  "print(__debug__, message, records == corrupted, records[3])\n")
        src = Path(valsweep.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("False branch nu1 step 3: ring below is regular True "
                               "StepRecord(branch='nu1', step=3, matrix=((1, 0), (0, 1)), "
                               "det=1, regular=True, embedding_dim=2)\n")

    def test_record_after_the_falsification_is_still_checked(self):
        sweep = singularity_sweep(build(InstanceConfig(11, 13, 3, 3, 25)))
        nu1, nu2 = sweep.walks
        with pytest.raises(CertificationError) as exc:
            certify_conflict(sweep._replace(walks=(nu1, replaced(nu2, 4, column_1_doubled))),
                             corrupt_step=3)
        assert str(exc.value) == "nu2 walk: matrix 4 is not one step of matrix 3"

    def test_regular_step_zero_falls_through_to_the_falsification(self):
        sweep = singularity_sweep(build(InstanceConfig(11, 13, 3, 3, 0)))
        with pytest.raises(Falsified) as exc:
            certify_conflict(sweep, corrupt_step=0)
        assert str(exc.value) == "branch nu1 step 0: ring below is regular"


# Fault injections, one per certificate in `build` and `certify_conflict`
# that validated input cannot trip.  Each patches the certificate's producer
# through `mp` (a pytest.MonkeyPatch).

def epsilon_past_one(mp):
    def tau_plus_one(a):
        tau = tau_from_a(a)
        return tau._replace(s=tau.s + tau.r)  # (s + r + t*sqrt(d))/r

    mp.setattr(counterexample, "tau_from_a", tau_plus_one)


def window_unchecked(mp):
    # (5, 11) lies outside 5 <= q < p < 2q-4, and p's chart value y1 is negative
    mp.setattr(InstanceConfig, "validate", lambda self: None)


def chart_exponent_shifted(mp):
    real = InstanceConfig.chart_exponents
    mp.setattr(InstanceConfig, "chart_exponents",
               lambda self: tuple((a, b, c, d + 1) for a, b, c, d in real(self)))


def index_off_by_one(mp):
    real = counterexample.group_index
    mp.setattr(counterexample, "group_index", lambda sub, sup: real(sub, sup) + 1)


def smith_order_wrong(mp):
    mp.setattr(counterexample, "derive_diagonal_action", lambda a: DiagonalAction(13, 12, 2))


def smith_pi1_trivial(mp):
    mp.setattr(counterexample, "pi1_order", lambda action: 1)


def orders_coincide(mp):
    real = counterexample.build

    def twin_branches(config):
        inst = real(config)
        nu1 = inst.branches[0]
        return inst._replace(branches=(nu1, nu1._replace(name="nu2")))

    mp.setattr(counterexample, "build", twin_branches)


def walk_forged(name, change):
    """A fault that hands `certify_conflict` the sweep's walks (nu1, nu2) as
    `change` rewrites them: a forged witness."""
    def fault(mp):
        real = counterexample.singularity_sweep

        def forged(instance):
            sweep = real(instance)
            return sweep._replace(walks=change(*sweep.walks))

        mp.setattr(counterexample, "singularity_sweep", forged)

    fault.__name__ = name
    return fault


def run_1_one_step_short(mp):
    """The quotient stream under the sweep ends run 1 (a_1 = q - 4 steps on
    nu1, adding column 2 into column 1) one step early: each matrix is still
    a successor of the one before, but the walk leaves the valuation."""
    mp.setattr(transform, "_quotient_stream", quotient_off(1, -1))


def doubled(x):
    """x = (s + t sqrt(d))/r with s, t and r doubled: not canonical."""
    return x._replace(s=2 * x.s, t=2 * x.t, r=2 * x.r)


def rows_swapped(matrix):
    """Singular with |det| the order, but not a successor of its predecessor."""
    return matrix[1], matrix[0]


def columns_swapped(matrix):
    """Singular with |det| the order, but not a successor of its predecessor."""
    (a, b), (c, d) = matrix
    return (b, a), (d, c)


# (fault, (q, p, m, n), the CertificationError's message)
CERTIFICATE_FAULTS = [
    (epsilon_past_one, (11, 13, 3, 3), "epsilon outside (0, 1)"),
    (window_unchecked, (5, 11, 7, 7), "chart value y1 not positive on nu2"),
    (chart_exponent_shifted, (11, 13, 3, 3), "chart relation row 2 of A gives v fails on nu1"),
    (index_off_by_one, (11, 13, 3, 3),
     "value group index 12, Smith quotient order 11, expected 11 on nu1"),
    (smith_order_wrong, (11, 13, 3, 3),
     "value group index 11, Smith quotient order 13, expected 11 on nu1"),
    (smith_pi1_trivial, (11, 13, 3, 3),
     "branch nu1: pi1 order 1 by the Smith form, 11 by Hirzebruch-Jung, expected 11"),
    (orders_coincide, (11, 13, 3, 3), "branch orders coincide; no obstruction"),
    (walk_forged("sweep_record_dropped", lambda nu1, nu2: (nu1, nu2[:-1])), (11, 13, 3, 3),
     "sweep walks hold [26, 25] matrices, expected two walks of 26"),
    (walk_forged("walk_one_matrix_long", lambda nu1, nu2: (nu1 + nu1[-1:], nu2)),
     (11, 13, 3, 3), "sweep walks hold [27, 26] matrices, expected two walks of 26"),
    (walk_forged("one_walk", lambda nu1, nu2: (nu1,)), (11, 13, 3, 3),
     "sweep walks hold [26] matrices, expected two walks of 26"),
    (walk_forged("three_walks", lambda nu1, nu2: (nu1, nu2, nu2)), (11, 13, 3, 3),
     "sweep walks hold [26, 26, 26] matrices, expected two walks of 26"),
    (walk_forged("record_9_matrix_forged", lambda nu1, nu2: (
        replaced(nu1, 9, lambda a: ((a[0][0], a[0][1] + 1), a[1])), nu2)), (11, 13, 3, 3),
     "nu1 walk: matrix 9 is not one step of matrix 8"),
    (walk_forged("step_0_not_the_branch_matrix",
                 lambda nu1, nu2: (nu1, replaced(nu2, 0, rows_swapped))), (11, 13, 3, 3),
     "nu2 walk: matrix 0 is not the branch matrix"),
    # a det-0 matrix is a non-successor like any other: the judge asks no layer about it
    (walk_forged("det_0_matrix_at_nu1_step_4",
                 lambda nu1, nu2: (replaced(nu1, 4, lambda a: ((2, 4), (1, 2))), nu2)),
     (11, 13, 3, 3), "nu1 walk: matrix 4 is not one step of matrix 3"),
    # a non-successor fails whatever its det
    (walk_forged("rows_swapped_at_nu2_step_14",
                 lambda nu1, nu2: (nu1, replaced(nu2, 14, rows_swapped))), (11, 13, 3, 3),
     "nu2 walk: matrix 14 is not one step of matrix 13"),
    (walk_forged("columns_swapped_at_nu2_step_10",
                 lambda nu1, nu2: (nu1, replaced(nu2, 10, columns_swapped))), (11, 13, 3, 3),
     "nu2 walk: matrix 10 is not one step of matrix 9"),
    # the judge's sign test at each walk's last matrix
    (run_1_one_step_short, (11, 13, 3, 3), "nu1 walk: matrix 25 leaves the valuation"),
]


def fault_outcome(fault, config, corrupt_step=None):
    """The verdict with `fault` injected, in process and through `main`:
    (the library's exception type and message, exit code, stdout, stderr)."""
    q, p, m, n = config
    out, err = io.StringIO(), io.StringIO()
    probe = [] if corrupt_step is None else ["--corrupt-step", str(corrupt_step)]
    with pytest.MonkeyPatch.context() as mp:
        fault(mp)
        try:
            certify_conflict(counterexample.singularity_sweep(
                counterexample.build(InstanceConfig(q, p, m, n))), corrupt_step)
            raised = None
        except Exception as exc:
            raised = (type(exc).__name__, str(exc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["counterexample", "--q", str(q), "--p", str(p),
                         "--m", str(m), "--n", str(n), *probe])
    return raised, code, out.getvalue(), err.getvalue()


class TestVerdictCertificates:
    """Every certificate of the verdict fires under fault injection, leaves
    through CertificationError, and exits 3 with nothing on stdout."""

    @pytest.mark.parametrize("fault, config, message", CERTIFICATE_FAULTS,
                             ids=[fault.__name__ for fault, *_ in CERTIFICATE_FAULTS])
    def test_fault_fails_the_certificate(self, fault, config, message):
        assert fault_outcome(fault, config) == (
            ("CertificationError", message), EXIT_CERTIFICATE, "",
            f"error: certificate failed: {message}\n")

    def test_non_canonical_ratio_gives_the_same_report(self, capsys, monkeypatch):
        # s, t and r doubled: the same number, so the same quotients, walks and bytes
        argv = ["counterexample", "--q", "11", "--p", "13", "--steps", "200"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        for branch in build(InstanceConfig(11, 13, 3, 3)).branches:
            vx, vy = branch.chart_values
            x = vx.ratio(vy)
            assert doubled(x) != x
            assert list(itertools.islice(transform._quotient_stream(doubled(x)), 60)) == \
                list(itertools.islice(transform._quotient_stream(x), 60))
        real = valuation.ValueElement.ratio
        monkeypatch.setattr(valuation.ValueElement, "ratio",
                            lambda self, other: doubled(real(self, other)))
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_faults_fail_under_optimize(self):
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "from test_counterexample import CERTIFICATE_FAULTS, fault_outcome\n"
                  "for fault, config, message in CERTIFICATE_FAULTS:\n"
                  "    raised, code, out, err = fault_outcome(fault, config)\n"
                  "    print(__debug__, raised[0], code, repr(out), err, end='')\n")
        src = Path(valsweep.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"False CertificationError 3 '' error: certificate failed: {message}"
            for _, _, message in CERTIFICATE_FAULTS]


# Walks that the judge excuses at no step, with or without the probe:
# (fault, corrupt_step, the CertificationError's message).  Swapping the rows
# commutes with the column operations, so the row-swapped walk follows
# successors from its own step 0.
STUCK_REPEATED_SWAPPED = [
    (walk_forged("nu1_stuck_at_step_0", lambda nu1, nu2: (nu1[:1] * len(nu1), nu2)),
     "nu1 walk: matrix 1 is not one step of matrix 0"),
    (walk_forged("nu1_step_5_repeated", lambda nu1, nu2: (nu1[:6] + nu1[5:-1], nu2)),
     "nu1 walk: matrix 6 is not one step of matrix 5"),
    (walk_forged("nu1_rows_swapped", lambda nu1, nu2: (tuple(map(rows_swapped, nu1)), nu2)),
     "nu1 walk: matrix 0 is not the branch matrix"),
]
WITNESS_FAULTS = [(fault, corrupt_step, message) for fault, message in STUCK_REPEATED_SWAPPED
                  for corrupt_step in (None, 0)] + [
    # the probe's step and the one after it are checked like any other
    (walk_forged("column_1_doubled_at_the_probe",
                 lambda nu1, nu2: (replaced(nu1, 3, column_1_doubled), nu2)),
     3, "nu1 walk: matrix 3 is not one step of matrix 2"),
    (walk_forged("rows_swapped_at_the_probe",
                 lambda nu1, nu2: (replaced(nu1, 3, rows_swapped), nu2)),
     3, "nu1 walk: matrix 3 is not one step of matrix 2"),
    (walk_forged("column_1_doubled_after_the_probe",
                 lambda nu1, nu2: (replaced(nu1, 4, column_1_doubled), nu2)),
     3, "nu1 walk: matrix 4 is not one step of matrix 3"),
    (walk_forged("identity_after_the_probe",
                 lambda nu1, nu2: (replaced(nu1, 25, lambda a: IDENTITY), nu2)),
     24, "nu1 walk: matrix 25 is not one step of matrix 24"),
]


def step_forged(forge, at):
    """A fault that forges the matrix of step `at` of each branch's sweep by
    `walk_faults.forged_matrix`."""
    def fault(mp):
        mp.setattr(counterexample, "branch_steps",
                   steps_forged(counterexample.branch_steps, at, forge))

    fault.__name__ = f"{forge}_at_step_{at}"
    return fault


# The forges of one state, at nu1's steps 1, 8 (run 2, of one step) and 25 (the last),
# with and without the probe there.  A walk states each step by its matrix alone, so the
# matrix of the other label is a step itself: the walk is refused at the next matrix, or
# at the last by the sign test, as a wrong turn.
WITNESS_FAULTS += [
    (step_forged(forge, at), corrupt_step,
     f"nu1 walk: matrix {at} leaves the valuation" if forge == "other_label" and at == 25
     else f"nu1 walk: matrix {at + 1} is not one step of matrix {at}" if forge == "other_label"
     else f"nu1 walk: matrix {at} is not one step of matrix {at - 1}")
    for forge in STATE_FORGES for at in (1, 8, 25) for corrupt_step in (None, at)]


class TestNoMatrixIsExcused:
    """The judge accepts a walk matrix only as the branch matrix at step 0 or
    a one-step successor of the matrix before it, whatever `corrupt_step` is:
    any other exits 3 with nothing on stdout."""

    @pytest.mark.parametrize("fault, corrupt_step, message", WITNESS_FAULTS,
                             ids=[f"{fault.__name__}-{corrupt_step}"
                                  for fault, corrupt_step, _ in WITNESS_FAULTS])
    def test_refused(self, fault, corrupt_step, message):
        assert fault_outcome(fault, (11, 13, 3, 3), corrupt_step) == (
            ("CertificationError", message), EXIT_CERTIFICATE, "",
            f"error: certificate failed: {message}\n")

    def test_refused_under_optimize(self):
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "from test_counterexample import WITNESS_FAULTS, fault_outcome\n"
                  "for fault, corrupt_step, message in WITNESS_FAULTS:\n"
                  "    raised, code, out, err = fault_outcome(fault, (11, 13, 3, 3), "
                  "corrupt_step)\n"
                  "    print(__debug__, raised[0], code, repr(out), err, end='')\n")
        src = Path(valsweep.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"False CertificationError 3 '' error: certificate failed: {message}"
            for _, _, message in WITNESS_FAULTS]


def off_valuation(name, branch, change):
    """A fault that sends one branch's walk of (11, 13) off the valuation by
    `change`, which rewrites `transform` or `counterexample` on `mp`, given
    the branch's step-0 matrix and value ratio."""
    def fault(mp):
        data = build(InstanceConfig(11, 13, 3, 3)).branches[branch]
        vx, vy = data.chart_values
        change(mp, data.matrix, vx.ratio(vy))

    fault.__name__ = name
    return fault


def quotient_moved(mp, matrix, ratio, delta):
    mp.setattr(transform, "_quotient_stream", quotient_off(1, delta, only=ratio))


def wrong_turn(mp, matrix, ratio, step):
    """The other column operation at `step` (0..24), and then a chain of
    successors: no matrix is a non-successor, so the step check passes."""
    real = counterexample.branch_steps
    bad = turned(real, {step})
    mp.setattr(counterexample, "branch_steps",
               lambda start, x: (bad if start == matrix else real)(start, x))


LEAVES = {0: "nu1 walk: matrix 25 leaves the valuation",
          1: "nu2 walk: matrix 25 leaves the valuation"}
# (fault, corrupt_step, the CertificationError's message): a quotient one less
# (a_1 - 1) or one more at run 1, and a wrong turn at steps 0, 1, 5 and 24, on
# each branch; the falsification probe excuses none of them
OFF_VALUATION = [
    (off_valuation(f"{name}_run_1_quotient_{'less' if delta < 0 else 'more'}", branch,
                   functools.partial(quotient_moved, delta=delta)), None, LEAVES[branch])
    for branch, name in enumerate(("nu1", "nu2")) for delta in (-1, 1)] + [
    (off_valuation(f"{name}_wrong_turn_at_step_{step}", branch,
                   functools.partial(wrong_turn, step=step)), corrupt_step, LEAVES[branch])
    for branch, name in enumerate(("nu1", "nu2")) for step in (0, 1, 5, 24)
    for corrupt_step in (None, 3)]


class TestOffTheValuation:
    """A walk that leaves the valuation while every matrix is a successor of
    the one before fails the judge's sign test at its last matrix: exit 3 with
    nothing on stdout, with or without the probe."""

    @pytest.mark.parametrize("fault, corrupt_step, message", OFF_VALUATION,
                             ids=[f"{fault.__name__}-{corrupt_step}"
                                  for fault, corrupt_step, _ in OFF_VALUATION])
    def test_refused(self, fault, corrupt_step, message):
        assert fault_outcome(fault, (11, 13, 3, 3), corrupt_step) == (
            ("CertificationError", message), EXIT_CERTIFICATE, "",
            f"error: certificate failed: {message}\n")

    def test_refused_under_optimize(self):
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "from test_counterexample import OFF_VALUATION, fault_outcome\n"
                  "for fault, corrupt_step, message in OFF_VALUATION:\n"
                  "    raised, code, out, err = fault_outcome(fault, (11, 13, 3, 3), "
                  "corrupt_step)\n"
                  "    print(__debug__, raised[0], code, repr(out), err, end='')\n")
        src = Path(valsweep.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"False CertificationError 3 '' error: certificate failed: {message}"
            for _, _, message in OFF_VALUATION]


class TestDerivedAction:
    def test_q11(self):
        action = derive_diagonal_action(((7, 9), (2, 1)))
        assert action.order == 11
        assert action.a != 0 and action.b != 0

    def test_regular_matrix(self):
        with pytest.raises(ConfigError):
            # unimodular matrix has trivial quotient, not a cyclic prime group
            derive_diagonal_action(((1, 1), (0, 1)))

    def test_singular_matrix_is_not_cyclic(self):
        # Z^2 / A Z^2 is infinite; its Smith invariants [0] equal [|det A|]
        with pytest.raises(ConfigError) as exc:
            derive_diagonal_action(((1, 2), (2, 4)))
        assert exc.value.constraint == "cyclic quotient"

    @pytest.mark.parametrize("matrix", [
        ((1, 0, 0), (0, 1, 0), (0, 0, 5)),  # was DiagonalAction(5, 0, 1)
        ((1, 0, 0), (0, 5, 0), (0, 0, 1)),  # was QuotientError
        ((5,),), ((1, 2), (3, 4), (5, 6)), ((1, 2, 3), (4, 5, 6))])
    def test_not_2x2_rejected(self, matrix):
        with pytest.raises(ConfigError) as exc:
            derive_diagonal_action(matrix)
        assert exc.value.constraint == "2x2 matrix"

    def test_large_matrix_rejected_at_once(self, monkeypatch):
        # a cofactor determinant of this matrix would take 200! terms
        monkeypatch.setattr(counterexample, "det_int", None)
        big = tuple(tuple(int(i == j) for j in range(200)) for i in range(200))
        with pytest.raises(ConfigError) as exc:
            derive_diagonal_action(big)
        assert exc.value.constraint == "2x2 matrix"


def action_or_error(derive, matrix):
    try:
        return derive(matrix)
    except Exception as exc:  # the two routes must fail alike
        return type(exc), str(exc)


@st.composite
def prime_det_matrices(draw):
    """L diag(1, +-p) R for a prime p and products L, R of four shears each,
    with entries up to about p * 2^64: the quotient is cyclic of order p."""
    p = draw(st.sampled_from([2, 3, 5, 11, 13, 97, 1009, 99991]))
    m = ((1, 0), (0, p * draw(st.sampled_from([1, -1]))))
    for side in (0, 1):
        for k, t in enumerate(draw(st.tuples(*[st.integers(-2 ** 8, 2 ** 8)] * 4))):
            e = ((1, t), (0, 1)) if k % 2 == 0 else ((1, 0), (t, 1))
            a, b = (e, m) if side == 0 else (m, e)
            m = tuple(tuple(sum(a[i][j] * b[j][l] for j in range(2)) for l in range(2))
                      for i in range(2))
    return m


class TestDerivedActionOracle:
    """The Smith-V route of derive_diagonal_action against the adjugate
    route of oracles.adjugate_diagonal_action."""

    def test_exhaustive_small_entries(self, monkeypatch):
        # both routes read the same certified Smith form, so it is computed
        # once per matrix; the routes differ only in how they read it
        snf = functools.cache(toric.smith_normal_form)
        monkeypatch.setattr(counterexample, "smith_normal_form", snf)
        monkeypatch.setattr(oracles, "smith_normal_form", snf)
        actions = 0
        for entries in itertools.product(range(-6, 7), repeat=4):
            matrix = (entries[:2], entries[2:])
            smith = action_or_error(derive_diagonal_action, matrix)
            assert smith == action_or_error(adjugate_diagonal_action, matrix), matrix
            actions += isinstance(smith, DiagonalAction)
        assert actions == 6248

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*[st.integers(-2 ** 64, 2 ** 64)] * 4))
    @example((0, 0, 0, 0))
    @example((2 ** 64, 2 ** 64 - 1, 2 ** 64 + 1, 2 ** 64))  # det 1
    def test_large_entries(self, entries):
        matrix = (entries[:2], entries[2:])
        assert (action_or_error(derive_diagonal_action, matrix)
                == action_or_error(adjugate_diagonal_action, matrix))

    @settings(max_examples=150, deadline=None)
    @given(prime_det_matrices())
    def test_large_entries_prime_order(self, matrix):
        action = derive_diagonal_action(matrix)
        assert action == adjugate_diagonal_action(matrix)
        assert action.order == abs(det_int(matrix))
