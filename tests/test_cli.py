import ast
import contextlib
import errno
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

import valsweep

from valsweep import cli, counterexample, qfield, toric, transform
from valsweep.cli import (COMMANDS, EXIT_CERTIFICATE, EXIT_FALSIFIED, EXIT_OK, EXIT_USAGE,
                          STEPS_MAX, SUBCOMMAND_FLAGS, Records, Report, UsageError, main,
                          parse_matrix)
from valsweep.errors import CertificationError
from valsweep.qfield import TAU_A_MAX, tau_from_a
from valsweep.quotient import ORDER_MAX
from valsweep.toric import CHAIN_MAX, SNF_N_MAX

from corpus import GROUPED_TOKEN, JUNK_FLAG, JUNK_TOKEN, LONG_TOKEN, OWN, VALID
from test_report_templates import assert_renders_like_oracle
from walk_faults import STATE_FORGES, quotient_off, runs_forged, steps_forged, turned


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestParseMatrix:
    def test_square(self):
        assert parse_matrix("7,9,2,1") == [[7, 9], [2, 1]]

    def test_non_square_rejected(self):
        with pytest.raises(UsageError) as exc:
            parse_matrix("1,2,3")
        assert "3 entries" in str(exc.value)

    def test_bad_entry_position_reported(self):
        with pytest.raises(UsageError) as exc:
            parse_matrix("1,x,3,4")
        assert "entry 1" in str(exc.value)


class TestSubcommands:
    def test_tau(self, capsys):
        code, payload, _ = run_json(capsys, "tau", "--a", "7")
        assert code == EXIT_OK
        assert payload["results"]["tau"] == {"s": 7, "t": 1, "r": 2, "d": 77}
        assert payload["verdict"] == "Verified"

    def test_convergents(self, capsys):
        code, payload, _ = run_json(capsys, "convergents", "--a", "7", "--steps", "4")
        assert code == EXIT_OK
        assert payload["results"]["convergents"] == [[7, 1], [8, 1], [63, 8], [71, 9]]
        assert payload["results"]["unimodular"]

    def test_value(self, capsys):
        code, payload, _ = run_json(capsys, "value", "--a", "7",
                                    "--matrix", "1,0,0,1")
        assert code == EXIT_OK
        assert payload["results"]["value"] == {"i": 1, "j": 0, "n": 1}

    @pytest.mark.parametrize("matrix", ["1,2", "3,0,1,4,0,2"])
    def test_value_reads_support_pairs(self, capsys, matrix):
        # --matrix holds (i, j) pairs, so any even count is a support
        from valsweep.valuation import MonomialValuation, ValueElement
        code, payload, _ = run_json(capsys, "value", "--a", "7", "--matrix", matrix)
        assert code == EXIT_OK
        flat = [int(x) for x in matrix.split(",")]
        support = list(zip(flat[::2], flat[1::2]))
        tau = tau_from_a(7)
        val = MonomialValuation(ValueElement.make(0, 1, 1, tau), ValueElement.make(1, 0, 1, tau))
        expected = val.value_of(support)
        assert payload["results"]["value"] == {"i": expected.i, "j": expected.j, "n": expected.n}
        assert payload["results"]["support"] == [list(pair) for pair in sorted(support)]

    def test_transform(self, capsys):
        code, payload, _ = run_json(capsys, "transform", "--a", "7", "--steps", "3")
        assert code == EXIT_OK
        states = payload["results"]["states"]
        assert len(states) == 4
        assert states[1]["A"] == [[1, 1], [0, 1]]
        assert payload["results"]["det_constant"]

    def test_snf(self, capsys):
        code, payload, _ = run_json(capsys, "snf", "--matrix", "7,9,2,1")
        assert code == EXIT_OK
        assert payload["results"]["diagonal"] == [1, 11]
        assert payload["results"]["quotient"] == "Z/11"

    # U, D and V exactly as the array-based implementation printed them
    @pytest.mark.parametrize("matrix, expected", [
        ("7,9,2,1", {"U": [[0, 1], [-1, 9]], "D": [[1, 0], [0, 11]],
                     "V": [[0, 1], [1, -2]]}),
        ("2,1,0,0,3,1,1,0,1", {"U": [[1, 0, 0], [-3, 1, 0], [3, -1, 1]],
                               "D": [[1, 0, 0], [0, 1, 0], [0, 0, 7]],
                               "V": [[0, 0, 1], [1, 0, -2], [0, 1, 6]]}),
        ("1,2,2,4", {"U": [[1, 0], [-2, 1]], "D": [[1, 0], [0, 0]],
                     "V": [[1, -2], [0, 1]]}),
    ])
    def test_snf_certificate_pinned(self, capsys, matrix, expected):
        code, payload, _ = run_json(capsys, "snf", "--matrix", matrix)
        assert code == EXIT_OK
        res = payload["results"]
        assert {k: res[k] for k in ("U", "D", "V")} == expected

    def test_hilbert(self, capsys):
        code, payload, _ = run_json(capsys, "hilbert", "--matrix", "1,0,2,5")
        assert code == EXIT_OK
        assert payload["results"]["generators"] == [[1, 0], [1, 1], [1, 2], [2, 5]]

    def test_regularity(self, capsys):
        code, payload, _ = run_json(capsys, "regularity", "--matrix", "7,9,2,1")
        assert code == EXIT_OK
        assert payload["results"]["regularity"] == "Singular"
        assert payload["results"]["embedding_dim"] >= 3

    def test_lemma5(self, capsys):
        code, payload, _ = run_json(capsys, "lemma5", "--order", "5",
                                    "--a", "1", "--b", "2")
        assert code == EXIT_OK
        assert payload["results"]["minimal_generators"] == [[0, 5], [1, 2], [3, 1], [5, 0]]
        assert payload["results"]["pi1"] == 5

    def test_counterexample(self, capsys):
        code, payload, _ = run_json(capsys, "counterexample", "--q", "11",
                                    "--p", "13", "--steps", "25")
        assert code == EXIT_OK
        assert payload["verdict"] == "Verified"
        assert len(payload["results"]["steps"]) == 52
        assert payload["results"]["pi1_orders"] == {"nu1": 11, "nu2": 13}

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "snf", "--matrix", "7,9,2,1",
                           "--format", "text")
        assert code == EXIT_OK
        assert "verdict: Verified" in out
        assert "quotient: Z/11" in out


class TestExitCodes:
    def test_config_error_names_constraint(self, capsys):
        code, out, err = run(capsys, "counterexample", "--q", "11", "--p", "19")
        assert code == EXIT_USAGE
        assert out == ""
        assert "2q-4" in err

    def test_malformed_matrix(self, capsys):
        code, out, err = run(capsys, "snf", "--matrix", "1,2,3")
        assert code == EXIT_USAGE
        assert "3 entries" in err

    def test_missing_flag(self, capsys):
        code, _, err = run(capsys, "tau")
        assert code == EXIT_USAGE
        assert "--a" in err

    def test_value_odd_entry_count_rejected(self, capsys):
        code, out, err = run(capsys, "value", "--a", "7",
                             "--matrix", "1,2,3,4,5,6,7,8,9")
        assert code == EXIT_USAGE
        assert out == ""
        assert "even number of entries" in err and "got 9" in err

    @pytest.mark.parametrize("step", ["6", "99", "-1"])
    def test_corrupt_step_outside_sweep_rejected(self, capsys, step):
        code, out, err = run(capsys, "counterexample", "--q", "11", "--p", "13",
                             "--steps", "5", "--corrupt-step", step)
        assert code == EXIT_USAGE
        assert out == ""
        assert "[0 <= corrupt-step <= steps]" in err

    def test_corrupt_step_at_last_step_falsifies(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--q", "11", "--p", "13",
                           "--steps", "5", "--corrupt-step", "5")
        assert code == EXIT_FALSIFIED
        assert "nu1 step 5" in json.loads(out)["results"]["falsification"]

    def test_failed_certificate_has_its_own_exit_code(self, capsys, monkeypatch):
        # U A V != D for A = [[7, 9], [2, 1]]
        broken = (((1, 0), (0, 1)), ((1, 0), (0, 11)), ((1, 0), (0, 1)))
        monkeypatch.setattr(toric, "_smith_reduce", lambda m: broken)
        code, out, err = run(capsys, "snf", "--matrix", "7,9,2,1")
        assert code == EXIT_CERTIFICATE == 3
        assert out == ""
        assert err.startswith("error: certificate failed: Smith certificate fails")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, line", [
        (("tau", "--a", "0"), "error: a must be a positive integer"),
        (("value", "--a", "3", "--matrix=-1,0,0,0"),
         "error: negative exponent in support: (-1,0)"),
        (("hilbert", "--matrix=1,0,2,0"), "error: cone is not strictly convex (parallel rays)"),
        (("lemma5", "--order", "4", "--a", "1", "--b", "1"), "error: order 4 is not prime"),
        (("counterexample", "--q", "4", "--p", "13"),
         "error: violated constraint [q prime > 3]: q=4 must be a prime greater than 3"),
        (("transform", "--a", "2", "--steps", str(STEPS_MAX + 1)),
         f"error: violated constraint [steps <= {STEPS_MAX}]: "
         f"--steps {STEPS_MAX + 1} exceeds the step cap"),
    ], ids=["qfield", "valuation", "toric", "quotient", "config", "config-cli"])
    def test_each_layer_input_error_exits_1(self, capsys, argv, line):
        # main catches every layer's error class from valsweep.errors alone
        assert run(capsys, *argv) == (EXIT_USAGE, "", line + "\n")

    @pytest.mark.parametrize("argv", [("transform", "--a", "7"),
                                      ("counterexample", "--q", "11", "--p", "13")])
    def test_negative_steps_rejected(self, capsys, argv):
        assert run(capsys, *argv, "--steps", "-1") == (
            EXIT_USAGE, "", "error: violated constraint [steps >= 0]: steps must be nonnegative\n")

    def test_falsification_channel(self, capsys):
        code, out, err = run(capsys, "counterexample", "--q", "11", "--p", "13",
                             "--steps", "5", "--corrupt-step", "2")
        assert code == EXIT_FALSIFIED
        payload = json.loads(out)
        assert payload["verdict"] == "Falsified"
        assert "regular" in payload["results"]["falsification"]


def dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


# every (subcommand, flag) pair, split by whether the subcommand reads the flag
OWN_PAIRS = [(c, f) for c, (required, optional) in OWN.items() for f in required + optional]
FOREIGN_PAIRS = [(c, f) for c, (required, optional) in OWN.items() for f in VALID
                 if f not in required + optional]


def with_required(command: str) -> list[str]:
    return [x for flag in OWN[command][0] for x in (flag, VALID[flag])]


class TestFlagTable:
    """Each subcommand takes only the flags of its row in SUBCOMMAND_FLAGS."""

    def test_table_rows(self):
        assert SUBCOMMAND_FLAGS.keys() == COMMANDS.keys()
        assert SUBCOMMAND_FLAGS == {c: (tuple(map(dest, required)), tuple(map(dest, optional)))
                                    for c, (required, optional) in OWN.items()}
        # --format is every subcommand's, so it is in no row, and neither is --help
        assert set(cli._FLAGS.values()) - {"--format", "--help"} == set(VALID)
        assert (len(OWN_PAIRS), len(FOREIGN_PAIRS)) == (19, 71)

    @pytest.mark.parametrize("command, flag", FOREIGN_PAIRS,
                             ids=[f"{c}{f}" for c, f in FOREIGN_PAIRS])
    def test_foreign_flag_rejected(self, capsys, command, flag):
        assert run(capsys, command, *with_required(command), flag, VALID[flag]) == (
            EXIT_USAGE, "", f"error: {flag} is not a flag of {command}\n")

    @pytest.mark.parametrize("command, flag", OWN_PAIRS, ids=[f"{c}{f}" for c, f in OWN_PAIRS])
    def test_own_flag_accepted(self, capsys, command, flag):
        argv = with_required(command)
        if flag not in argv:
            argv += [flag, VALID[flag]]
        code, payload, err = run_json(capsys, command, *argv)
        assert code == (EXIT_FALSIFIED if flag == "--corrupt-step" else EXIT_OK), err
        assert payload["command"] == command

    @pytest.mark.parametrize("argv", [("-h",), ("--help",), ("tau", "--he"), ("--a", "3", "-h")])
    def test_help_lists_each_row(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        rows = [f"  {c:<15} " + " ".join(required + [f"[{f}]" for f in optional])
                for c, (required, optional) in OWN.items()]
        assert out.splitlines()[-len(rows):] == rows
        assert f"```text\n{out}```" in (SRC.parent / "README.md").read_text()

    def test_missing_flag_named_before_a_foreign_one(self, capsys):
        assert run(capsys, "lemma5", "--order", "7", "--q", "11") == (
            EXIT_USAGE, "", "error: --a is required for this subcommand\n")

    def test_foreign_flag_named_before_the_step_cap(self, capsys):
        assert run(capsys, "transform", "--a", "7", "--steps", str(STEPS_MAX + 1),
                   "--corrupt-step", "2") == (
            EXIT_USAGE, "", "error: --corrupt-step is not a flag of transform\n")

    @pytest.mark.parametrize("argv, flag", [
        (("tau", "--a", "1", "--a", "2"), "--a"),
        (("tau", "--a", "1", "--a=1"), "--a"),
        (("snf", "--ma", "1,0,0,1", "--matrix", "1,0,0,1"), "--matrix"),
        (("snf", "--matrix=1,0,0,1", "--format", "text", "--form", "text"), "--format"),
        (("counterexample", "--q", "11", "--p", "13", "--corrupt-step", "2", "--corr", "3"),
         "--corrupt-step"),
        (("lemma5", "--order", "7", "--a", "1", "--b", "2", "--order", "7", "--q", "11"),
         "--order"),
    ])
    def test_repeated_flag_refused(self, capsys, argv, flag):
        # the second occurrence is refused where it stands, even with the same value
        assert run(capsys, *argv) == (EXIT_USAGE, "",
                                      f"error: argument {flag}: given more than once\n")


class TestHostileSizes:
    """Inputs whose cost used to grow with |det|^2 or p^3."""

    def timed(self, capsys, *argv):
        start = time.monotonic()
        code, payload, _ = run_json(capsys, *argv)
        assert time.monotonic() - start < 2.0
        assert code == EXIT_OK
        return payload["results"]

    def test_hilbert_huge_determinant(self, capsys):
        res = self.timed(capsys, "hilbert", "--matrix=1,0,-1,1000003")
        assert res["count"] == 3
        assert res["generators"] == [[-1, 1000003], [0, 1], [1, 0]]

    def test_lemma5_order_401(self, capsys):
        res = self.timed(capsys, "lemma5", "--order", "401", "--a", "1", "--b", "2")
        assert len(res["full_generators"]) == 402
        # i + 2j = 0 mod 401: each odd i < 401 pairs with j = (401 - i) / 2
        odd = [[2 * k + 1, 200 - k] for k in range(200)]
        assert res["minimal_generators"] == [[0, 401]] + odd + [[401, 0]]
        assert res["pi1"] == 401

    def test_counterexample_q1009_p1013(self, capsys):
        res = self.timed(capsys, "counterexample", "--q", "1009", "--p", "1013",
                         "--m", "5", "--n", "5", "--steps", "25")
        assert len(res["steps"]) == 52
        assert all(s["regularity"] == "Singular" for s in res["steps"])
        assert res["pi1_orders"] == {"nu1": 1009, "nu2": 1013}

    @pytest.mark.parametrize("argv", [("tau",), ("convergents",), ("transform",),
                                      ("value", "--matrix", "1,0,0,1")])
    def test_tau_beyond_cap_rejected_at_once(self, capsys, argv):
        start = time.monotonic()
        code, out, err = run(capsys, *argv, "--a", "999999999989")
        assert time.monotonic() - start < 1.0
        assert code == EXIT_USAGE
        assert out == ""
        assert "a <= 1000000" in err

    @pytest.mark.parametrize("argv, constraint", [
        (("lemma5", "--order", "100000000000031", "--a", "1", "--b", "2"), "order <= 100000"),
        (("counterexample", "--q", "1000000000000000003", "--p", "1000000000000000009"),
         "[q <= 100000]"),
        (("counterexample", "--q", "99991", "--p", "100003"), "[p <= 100000]"),
        (("snf", "--matrix", ",".join(["1"] * 49)), "n <= 6"),
        (("snf", "--matrix", ",".join(map(str, range(144)))), "n <= 6"),
    ])
    def test_beyond_named_cap_rejected_at_once(self, capsys, argv, constraint):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code == EXIT_USAGE
        assert out == ""
        assert constraint in err

    @pytest.mark.parametrize("argv", [("counterexample", "--q", "11", "--p", "13"),
                                      ("transform", "--a", "999979"),
                                      ("convergents", "--a", "999979")],
                             ids=["counterexample", "transform", "convergents"])
    def test_steps_beyond_cap_rejected_at_once(self, capsys, argv):
        start = time.monotonic()
        code, out, err = run(capsys, *argv, "--steps", str(STEPS_MAX + 1))
        assert time.monotonic() - start < 1.0
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (f"error: violated constraint [steps <= {STEPS_MAX}]: "
                       f"--steps {STEPS_MAX + 1} exceeds the step cap\n")

    def test_steps_cap_admits_the_deep_sweep(self):
        assert STEPS_MAX >= 10_000

    def test_transform_at_steps_cap(self, capsys):
        # tau lies between a and a + 1, so the first a steps all divide the
        # second parameter into the first: A = [[1, k], [0, 1]] after k steps
        res = self.timed(capsys, "transform", "--a", "999979", "--steps", str(STEPS_MAX))
        assert len(res["states"]) == STEPS_MAX + 1
        assert res["states"][-1]["A"] == [[1, STEPS_MAX], [0, 1]]

    @pytest.mark.parametrize("argv", [
        ("convergents", "--a", "999979", "--steps", "1500"),
        ("convergents", "--a", "7", "--steps", str(STEPS_MAX)),
        ("regularity", "--matrix=1" + "0" * 4000 + ",0,0,1" + "0" * 4000),
        ("snf", "--matrix=" + "7" * 4000 + ",1,1," + "7" * 4000),
    ])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_past_int_digit_limit(self, capsys, argv, fmt):
        # Python converts ints of at most sys.get_int_max_str_digits() digits
        # (4300 by default) to str; a larger one cannot be printed
        start = time.monotonic()
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert time.monotonic() - start < 2.0
        assert code == EXIT_USAGE
        assert out == ""
        limit = sys.get_int_max_str_digits()
        assert err.startswith(f"error: violated constraint [integers of at most {limit} digits]")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("snf", f"--matrix={LONG_TOKEN},1,1,1"),
        ("hilbert", f"--matrix=1,{LONG_TOKEN},1,1"),
        ("regularity", f"--matrix=1,1,-{LONG_TOKEN},1"),
        ("value", "--a", "3", f"--matrix=1,+{LONG_TOKEN}"),
    ], ids=["snf", "hilbert", "regularity", "value"])
    def test_matrix_entry_past_int_digit_limit(self, capsys, argv):
        # int() refuses a decimal token past sys.get_int_max_str_digits(): the
        # error names that limit and does not echo the token
        limit = sys.get_int_max_str_digits()
        assert run(capsys, *argv) == (
            EXIT_USAGE, "", f"error: violated constraint [integers of at most {limit} digits]: "
                            "an integer exceeds the interpreter's int/str conversion limit\n")

    @pytest.mark.parametrize("flag", [flag for flag in VALID if flag != "--matrix"],
                             ids=lambda flag: flag[2:])
    @pytest.mark.parametrize("sign", ["", "-"], ids=["unsigned", "negative"])
    def test_int_flag_past_int_digit_limit(self, capsys, flag, sign):
        # argparse's own `invalid int value` would echo the whole token
        command = next(c for c, (required, optional) in OWN.items() if flag in required + optional)
        code, out, err = run(capsys, command, flag, sign + LONG_TOKEN)
        assert (code, out) == (EXIT_USAGE, "")
        limit = sys.get_int_max_str_digits()
        assert f"argument {flag}: violated constraint [integers of at most {limit} digits]" in err
        assert len(err) < 1000

    @pytest.mark.parametrize("argv", [("tau", "--a", GROUPED_TOKEN),
                                      ("value", "--a", "3", f"--matrix={GROUPED_TOKEN},1")],
                             ids=["int-flag", "matrix-entry"])
    def test_underscore_grouped_decimal_past_int_digit_limit(self, capsys, argv):
        # int() reads 7_7 as 77, so it refused these 4401 digits for their count alone
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        limit = sys.get_int_max_str_digits()
        assert f"violated constraint [integers of at most {limit} digits]" in err
        assert len(err) < 1000

    @pytest.mark.parametrize("argv", [("tau", "--a", JUNK_TOKEN),
                                      ("snf", f"--matrix={JUNK_TOKEN},1,1,1"),
                                      (JUNK_TOKEN, "--a", "3"),
                                      ("tau", "--a", "3", JUNK_TOKEN),
                                      ("tau", "--a", "3", JUNK_FLAG),
                                      ("tau", "--a", "3", "--format", JUNK_TOKEN)],
                             ids=["int-flag", "matrix-entry", "subcommand", "positional",
                                  "unknown-flag", "format"])
    def test_long_malformed_token_echoed_in_part(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert re.search(r"'(x{40}|--x{38})'\.\.\. \(5000 characters\)", err)
        assert len(err) < 1000

    def test_only_a_signed_decimal_is_named_too_long(self, capsys):
        # two signs are malformed, whatever the length
        code, out, err = run(capsys, "tau", "--a", "+-5")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith("error: argument --a: invalid int value: '+-5'\n")
        assert run(capsys, "snf", "--matrix=+-5,1,1,1") == (
            EXIT_USAGE, "", "error: --matrix: entry 0 ('+-5') is not an integer\n")

    @pytest.mark.parametrize("argv", [("hilbert", "--matrix=1,0,1,1000000000000")])
    def test_long_chain_rejected_at_once(self, capsys, argv):
        # a Hirzebruch-Jung chain of 10^12 + 1 vectors, counted before it is built
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 0.1
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (f"error: Hirzebruch-Jung chain length <= {CHAIN_MAX} required "
                       f"(one vector per generator)\n")

    def test_long_chain_regularity_answered_at_once(self, capsys):
        # the same chain is counted off its segments, not listed, so no cap applies
        start = time.monotonic()
        code, payload, _ = run_json(capsys, "regularity", "--matrix=1000000000000,-1,0,1")
        assert time.monotonic() - start < 0.1
        assert code == EXIT_OK
        assert payload["results"]["embedding_dim"] == 10 ** 12 + 1

    def test_tau_at_worst_case_below_cap(self, capsys):
        # 999979 and 999983 are both prime: the slowest trial division under the cap
        res = self.timed(capsys, "tau", "--a", "999979")
        assert res["tau"] == {"s": 999979, "t": 1, "r": 2, "d": 999979 * 999983}


IDENTITY = ((1, 0), (0, 1))


def sheared(k, matrix, times):
    """matrix with `times` more of the column that run k keeps added into the
    column it writes (column 2 on even k, column 1 on odd k)."""
    (a, b), (c, d) = matrix
    if k % 2:
        return (a + times * b, b), (c + times * d, d)
    return (a, b + times * a), (c, d + times * c)


# Faults in one run's end, as functions of (k, a_k, the run's true end)
RUN_FAULTS = {
    "run_one_step_short": lambda k, run, end: sheared(k, end, -1),
    "run_one_step_long": lambda k, run, end: sheared(k, end, 1),
    # undo the run, then add a_k times the column it writes into the one it keeps
    "shear_by_the_wrong_column": lambda k, run, end: sheared(k + 1, sheared(k, end, -run), run),
}


def faulty_runs(real, at, fault):
    """`branch_runs` with `fault` applied to the end of run `at`."""
    def runs(matrix, x):
        for k, run, end in real(matrix, x):
            yield k, run, (fault(k, run, end) if k == at else end)
    return runs


def convergent_columns(a, count):
    """(f_k, g_k) for k < count, read off the run ends of tau_from_a(a)."""
    return [(m[0][1 - k % 2], m[1][1 - k % 2])
            for k, _, m in islice(transform.branch_runs(IDENTITY, tau_from_a(a)), count)]


# The faults put into one run: those of a run's end, and the forges of one state, which
# go into the run's end for `convergents` and into the run's first state for `transform`
WALK_FAULTS = [*RUN_FAULTS, *STATE_FORGES]
# (command, the run faulted, the CertificationError's message for each fault): runs of
# tau_from_a(7) have lengths 7, 1, 7, 1, ..., so run 2 takes states 9..15 of 40.  A run
# written into the wrong column is a chain of steps, which the sign test at state 40
# refuses; so is state 9 of the other label, and state 10 is no step of it
RUN_CHECKS = [("convergents", 5, dict.fromkeys(WALK_FAULTS,
                                               "run 5 is not one shear of the matrix before it")),
              ("transform", 2, {**dict.fromkeys(["run_one_step_short", "run_one_step_long",
                                                 "shear_by_the_wrong_column"],
                                                "matrix 40 leaves the valuation"),
                                "column_1_doubled": "matrix 9 is not one step of matrix 8",
                                "other_label": "matrix 10 is not one step of matrix 9",
                                "repeated": "matrix 9 is not one step of matrix 8"})]


def run_fault(command, at, fault):
    """(attribute of `transform`, replacement) that puts `fault` into run `at`
    of `command`: into the run ends of `branch_runs` for `convergents`; for
    `transform`, which steps the quotient stream one addition at a time, a
    quotient one less or one more, or a run whose steps add into the other
    column.  A forge of `STATE_FORGES` rewrites the run's end for `convergents`
    and the run's first state for `transform`."""
    quotients = list(islice(transform._quotient_stream(tau_from_a(7)), at + 1))
    start = sum(quotients[:-1])
    if command == "convergents":
        if fault in STATE_FORGES:
            return "branch_runs", runs_forged(transform.branch_runs, at, fault)
        return "branch_runs", faulty_runs(transform.branch_runs, at, RUN_FAULTS[fault])
    if fault in STATE_FORGES:
        return "branch_steps", steps_forged(transform.branch_steps, start + 1, fault)
    if fault == "shear_by_the_wrong_column":
        return "branch_steps", turned(transform.branch_steps, range(start, start + quotients[-1]))
    return "_quotient_stream", quotient_off(at, -1 if fault == "run_one_step_short" else 1)


class TestConvergentsCheck:
    """Each run of the walk from the identity along tau is checked to be one
    shear: the kept column unchanged, the written one plus a_k times the kept
    one.  So det A stays 1 and f_(k-1) g_k - f_k g_(k-1) = +-1.  A run that
    fails exits 3 with nothing on stdout; generation stops at the first
    numerator past the digit limit.  `transform` steps the quotient stream
    itself, so its faults go into the stream or the steps: a wrong quotient
    or a run into the other column fails the sign test at its last state, and
    a forged state fails the step check at that state or the next."""

    # (run, df, dg): the convergent that run writes, off by (df, dg)
    FAULTS = [(1, 1, 0), (2, 0, 1), (5, 7, 0), (9, 0, -1)]

    def tampered(self, monkeypatch, index, df, dg):
        def fault(k, run, end):
            (a, b), (c, d) = end
            return ((a + df, b), (c + dg, d)) if k % 2 else ((a, b + df), (c, d + dg))

        monkeypatch.setattr(transform, "branch_runs",
                            faulty_runs(transform.branch_runs, index, fault))

    @pytest.mark.parametrize("index, df, dg", FAULTS)
    def test_broken_convergent_exits_3(self, capsys, monkeypatch, index, df, dg):
        self.tampered(monkeypatch, index, df, dg)
        assert run(capsys, "convergents", "--a", "7", "--steps", "10") == (
            EXIT_CERTIFICATE, "",
            f"error: certificate failed: run {index} is not one shear of the matrix before it\n")

    def test_a_fault_that_keeps_the_determinant_fails_its_own_run(self, capsys, monkeypatch):
        # (15, 2) in place of (7, 1) still has determinant -1 with (8, 1), and
        # the run check catches it at run 0, before any later run is read
        self.tampered(monkeypatch, 0, 8, 1)
        assert run(capsys, "convergents", "--a", "7", "--steps", "1") == (
            EXIT_CERTIFICATE, "",
            "error: certificate failed: run 0 is not one shear of the matrix before it\n")

    def test_broken_convergent_under_optimize(self):
        script = (
            "import sys\n"
            "from valsweep import transform\n"
            "from valsweep.cli import main\n"
            "real = transform.branch_runs\n"
            "def runs(matrix, x):\n"
            "    for k, run, ((a, b), (c, d)) in real(matrix, x):\n"
            "        yield k, run, ((a + 7, b), (c, d)) if k == 5 else ((a, b), (c, d))\n"
            "transform.branch_runs = runs\n"
            "print('debug', __debug__, file=sys.stderr)\n"
            "sys.exit(main(['convergents', '--a', '7', '--steps', '10']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_CERTIFICATE, "", "debug False\nerror: certificate failed: "
                                  "run 5 is not one shear of the matrix before it\n")

    @pytest.mark.parametrize("fault", WALK_FAULTS)
    @pytest.mark.parametrize("command, at, messages", RUN_CHECKS, ids=[c for c, _, _ in RUN_CHECKS])
    def test_run_fault_exits_3(self, capsys, monkeypatch, command, at, messages, fault):
        message = messages[fault]
        monkeypatch.setattr(transform, *run_fault(command, at, fault))
        with pytest.raises(CertificationError) as exc:
            cli.COMMANDS[command](cli.parse_args([command, "--a", "7", "--steps", "40"]))
        assert str(exc.value) == message
        assert run(capsys, command, "--a", "7", "--steps", "40") == (
            EXIT_CERTIFICATE, "", f"error: certificate failed: {message}\n")

    def test_run_faults_under_optimize(self):
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "from test_cli import RUN_CHECKS, WALK_FAULTS, run_fault\n"
                  "from valsweep import transform\n"
                  "from valsweep.cli import main\n"
                  "for command, at, _ in RUN_CHECKS:\n"
                  "    for fault in WALK_FAULTS:\n"
                  "        name, replacement = run_fault(command, at, fault)\n"
                  "        real = getattr(transform, name)\n"
                  "        setattr(transform, name, replacement)\n"
                  "        code = main([command, '--a', '7', '--steps', '40'])\n"
                  "        setattr(transform, name, real)\n"
                  "        print(__debug__, code, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "")
        expected = [f"error: certificate failed: {messages[fault]}\nFalse {EXIT_CERTIFICATE}"
                    for _, _, messages in RUN_CHECKS for fault in WALK_FAULTS]
        assert proc.stderr == "".join(line + "\n" for line in expected)

    def test_stops_at_the_first_numerator_past_the_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        cs = convergent_columns(999979, 1500)
        last = next(k for k, (f, _) in enumerate(cs) if f >= 10 ** limit)
        code, out, _ = run(capsys, "convergents", "--a", "999979", "--steps", str(last))
        assert code == EXIT_OK
        assert json.loads(out)["results"]["convergents"][-1] == list(cs[last - 1])
        calls = []
        real = transform.branch_runs

        def counted(matrix, x):
            for item in real(matrix, x):
                calls.append(item)
                yield item

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transform, "branch_runs", counted)
            code, out, err = run(capsys, "convergents", "--a", "999979",
                                 "--steps", str(STEPS_MAX))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"[integers of at most {limit} digits]" in err
        assert len(calls) == last + 1

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_count_must_be_positive(self, capsys, steps):
        code, out, err = run(capsys, "convergents", "--a", "7", "--steps", steps)
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: violated constraint [steps >= 1]: steps must be positive\n")


# (module patched, its attribute, the fault, argv, the CertificationError's message):
# a quotient one less or one more sends a walk off the valuation, and only the sign
# test at the walk's last matrix sees it; runs of tau_from_a(7) are 7, 1, 7, 1, ...
OFF_VALUATION = [
    *[("transform", "_quotient_stream", (1, delta), argv, message) for delta in (-1, 1)
      for argv, message in ((["transform", "--a", "7", "--steps", "40"],
                             "matrix 40 leaves the valuation"),
                            (["convergents", "--a", "7"], "run 9 leaves the valuation"))],
    # a last run that stops short still has both values positive at its end, so
    # `convergents` tests one step into the next run
    ("transform", "_quotient_stream", (0, -1), ["convergents", "--a", "7", "--steps", "1"],
     "run 0 leaves the valuation"),
    ("transform", "_quotient_stream", (9, -1), ["convergents", "--a", "7"],
     "run 9 leaves the valuation"),
    # tau(tau - a) = a puts tau between a and a + 1, so its floor is a
    ("qfield", "_quotient_stream", (0, 1), ["tau", "--a", "7"], "floor 8 of tau is not 7"),
    ("qfield", "_quotient_stream", (0, -1), ["tau", "--a", "1"], "floor 0 of tau is not 1"),
]


def off_valuation_outcome(module, attr, fault, argv):
    """The command's function and `main` with `fault` in the quotient stream:
    (the function's exception type and message, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(getattr(valsweep, module), attr, quotient_off(*fault))
        try:
            COMMANDS[argv[0]](cli.parse_args(argv))
            raised = None
        except Exception as exc:
            raised = (type(exc).__name__, str(exc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return raised, code, out.getvalue(), err.getvalue()


class TestOffTheValuation:
    """`transform`, `convergents` and `tau` refuse a wrong partial quotient:
    exit 3 with nothing on stdout, also under python -O."""

    @pytest.mark.parametrize("module, attr, fault, argv, message", OFF_VALUATION,
                             ids=[f"{argv[0]}-{fault}-{' '.join(argv[1:])}"
                                  for _, _, fault, argv, _ in OFF_VALUATION])
    def test_refused(self, module, attr, fault, argv, message):
        assert off_valuation_outcome(module, attr, fault, argv) == (
            ("CertificationError", message), EXIT_CERTIFICATE, "",
            f"error: certificate failed: {message}\n")

    def test_refused_under_optimize(self):
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "from test_cli import OFF_VALUATION, off_valuation_outcome\n"
                  "for case in OFF_VALUATION:\n"
                  "    raised, code, out, err = off_valuation_outcome(*case[:4])\n"
                  "    print(__debug__, raised[0], code, repr(out), err, end='')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"False CertificationError 3 '' error: certificate failed: {message}"
            for *_, message in OFF_VALUATION]


# (forge, state K, the CertificationError's message): `transform --a 7 --steps 40`
# with the matrix of state K of `branch_steps` forged by `walk_faults.forged_matrix`;
# runs of tau_from_a(7) are 7, 1, 7, 1, ..., so state 8 is the one step of run 1 and
# state 40 the last.  The matrix of the other label is a step itself, a wrong turn:
# the next state is no step of it, and at the last state the sign test refuses it.
STATE_FAULTS = [
    (forge, at, "matrix 40 leaves the valuation" if forge == "other_label" and at == 40
     else f"matrix {at + 1} is not one step of matrix {at}" if forge == "other_label"
     else f"matrix {at} is not one step of matrix {at - 1}")
    for forge, ats in (("column_1_doubled", (1, 5, 40)), ("other_label", (1, 8, 40)),
                       ("repeated", (1, 8, 40))) for at in ats]


def state_fault_outcome(forge, at):
    """`transform --a 7 --steps 40` through `main` with state `at` forged:
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transform, "branch_steps", steps_forged(transform.branch_steps, at, forge))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["transform", "--a", "7", "--steps", "40"])
    return code, out.getvalue(), err.getvalue()


class TestTransformCheck:
    """`transform` checks each state it prints to be `transform._shear` of the
    state before, and names it by the parity of that step, so that its
    `"branch"`, `"det": 1` and `"det_constant": true` are certified: a forged
    state exits 3 with nothing on stdout, also under python -O."""

    @pytest.mark.parametrize("forge, at, message", STATE_FAULTS,
                             ids=[f"{forge}-{at}" for forge, at, _ in STATE_FAULTS])
    def test_refused(self, forge, at, message):
        assert state_fault_outcome(forge, at) == (
            EXIT_CERTIFICATE, "", f"error: certificate failed: {message}\n")

    def test_refused_under_optimize(self):
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "from test_cli import STATE_FAULTS, state_fault_outcome\n"
                  "for forge, at, _ in STATE_FAULTS:\n"
                  "    code, out, err = state_fault_outcome(forge, at)\n"
                  "    print(__debug__, code, repr(out), err, end='')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"False {EXIT_CERTIFICATE} '' error: certificate failed: {message}"
            for _, _, message in STATE_FAULTS]


class TestNegativeMatrixEntries:
    @pytest.mark.parametrize("argv", [("snf", "-1,0,0,1"), ("snf", "-3,2,5,-7"),
                                      ("hilbert", "-1,2,3,-7"), ("regularity", "-7,9,2,1"),
                                      ("regularity", "-2"), ("value", "-1,2,3,4", "--a", "3"),
                                      ("snf", "-1,0,0,1", "--format", "text")])
    def test_separate_value_same_as_attached(self, capsys, argv):
        command, matrix, *rest = argv
        attached = run(capsys, command, f"--matrix={matrix}", *rest)
        for spelling in ("--matrix", "--ma", "--matri"):  # argparse takes any unique prefix
            separate = run(capsys, command, spelling, matrix, *rest)
            assert separate[0] in (EXIT_OK, EXIT_USAGE)
            assert "expected one argument" not in separate[2]
            assert separate[:2] == attached[:2]
            assert separate[2].split("timing_ms")[0] == attached[2].split("timing_ms")[0]

    def test_value_of_another_option_left_alone(self, capsys):
        code, _, err = run(capsys, "snf", "--matrix", "--format", "-1,0,0,1")
        assert code == EXIT_USAGE
        assert "expected one argument" in err


class TestSweepOnce:
    @pytest.mark.parametrize("steps", [0, 7])
    def test_counterexample_sweeps_once(self, capsys, monkeypatch, steps):
        calls = {"regularity": 0, "sweep": 0, "validate": 0, "exponents": 0, "snf": 0, "det": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(counterexample, "below_ring_regularity",
                            counted("regularity", counterexample.below_ring_regularity))
        monkeypatch.setattr(counterexample, "singularity_sweep",
                            counted("sweep", counterexample.singularity_sweep))
        monkeypatch.setattr(counterexample.InstanceConfig, "validate",
                            counted("validate", counterexample.InstanceConfig.validate))
        monkeypatch.setattr(counterexample.InstanceConfig, "chart_exponents",
                            counted("exponents", counterexample.InstanceConfig.chart_exponents))
        monkeypatch.setattr(counterexample, "smith_normal_form",
                            counted("snf", counterexample.smith_normal_form))
        monkeypatch.setattr(counterexample, "det_int", counted("det", counterexample.det_int))
        code, _, _ = run(capsys, "counterexample", "--q", "11", "--p", "13",
                         "--steps", str(steps))
        assert code == EXIT_OK
        # build judges step 0 of each branch once (every later step is an
        # elementary column operation on its predecessor and carries that
        # verdict, and certify_conflict reads it); build validates once,
        # reads the chart exponents once (validate reads them too), and
        # takes one Smith form and det per branch
        assert calls == {"regularity": 2, "sweep": 1, "validate": 1, "exponents": 1 + 1,
                         "snf": 2, "det": 2}


DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


class TestRecordedDigests:
    """Every invocation the benchmark checks keeps its recorded stdout bytes."""

    @pytest.mark.parametrize("key", sorted(json.loads(DIGESTS.read_text())))
    def test_stdout_sha256(self, capsys, key):
        code, out, _ = run(capsys, *key.split())
        assert code == (EXIT_FALSIFIED if "--corrupt-step" in key else EXIT_OK)
        expected = json.loads(DIGESTS.read_text())[key]
        assert hashlib.sha256(out.encode()).hexdigest() == expected


JSON_KEYS = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                           blacklist_characters="\0"))
BIG = st.integers(-2 ** 4000, 2 ** 4000)
JSON_SCALARS = st.none() | st.booleans() | BIG | JSON_KEYS
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda children: st.lists(children) | st.dictionaries(JSON_KEYS, children),
    max_leaves=30)
SKELETONS = st.recursive(
    st.sampled_from([cli._INT, cli._TEXT]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(JSON_KEYS, children,
                                                                       max_size=3),
    max_leaves=6)


@st.composite
def record_lists(draw):
    """A `Records` and the plain list of records it stands for."""
    skeleton = draw(SKELETONS)
    rows, plain = [], []
    for _ in range(draw(st.integers(0, 3))):
        row = []

        def fill(shape):
            if shape == cli._INT:
                row.append(draw(BIG))
                return row[-1]
            if shape == cli._TEXT:
                value = draw(st.none() | st.booleans() | JSON_KEYS)
                row.append(json.dumps(value))
                return value
            if isinstance(shape, list):
                return [fill(x) for x in shape]
            return {k: fill(shape[k]) for k in sorted(shape)}

        plain.append(fill(skeleton))
        rows.append(tuple(row))
    return Records(skeleton, rows), plain


# results dicts with (Records, plain list) pairs at any dict depth
RESULTS = st.recursive(
    st.dictionaries(JSON_KEYS, JSON_VALUES | record_lists(), max_size=4),
    lambda children: st.dictionaries(JSON_KEYS, JSON_VALUES | record_lists() | children,
                                     max_size=4),
    max_leaves=8)


PAIRS = (Records(cli._PAIR, [(1, 2), (3, 4)]), [[1, 2], [3, 4]])


def side(tree, k: int):
    """tree with each (Records, plain list) pair replaced by its k-th item."""
    if isinstance(tree, tuple):
        return tree[k]
    if isinstance(tree, dict):
        return {key: side(v, k) for key, v in tree.items()}
    return tree


class TestJsonWriter:
    """Report.render against json.dumps(..., sort_keys=True, indent=2) and
    the text projection of the same payload."""

    @settings(max_examples=200, deadline=None)
    @given(RESULTS, st.dictionaries(JSON_KEYS, JSON_SCALARS, max_size=3), JSON_KEYS, JSON_KEYS)
    @example(  # text keys print raw, so a key's spaces or newline are no indent
        {" a": PAIRS, "b\n  c": {"%d": PAIRS, "e": (Records(cli._PAIR, []), [])}, "f": PAIRS},
        {}, "x", "Verified")
    def test_matches_json_dumps(self, tree, inputs, command, verdict):
        assert_renders_like_oracle(Report(command, inputs, side(tree, 0), verdict),
                                   side(tree, 1))

    @pytest.mark.parametrize("value", [
        {}, [], {"a": {}, "b": [], "c": [[]], "d": [{}]},
        {"é": "ü\n\t\"\\", "\u2028": "\x00", "": "", "z\ud83d\ude00": "\U0001f600"},
        [True, 1, False, 0, None, -1], {"t": True, "one": 1, "n": None},
        [2 ** 4000, -2 ** 4000, [2 ** 4000]], ((1, 2), (3, (4, "x"))),
        {"b": 1, "a": 2, "B": 3, "_": 4, "aa": [1, {"y": 2, "x": [3]}]},
    ])
    def test_edge_cases(self, value):
        assert_renders_like_oracle(Report("x", {"q": 11}, {"v": value}, "Verified"),
                                   {"v": value})

    def test_rejects_what_json_dumps_rejects(self):
        for value in ([object()], {"x": {1.5}}):
            with pytest.raises(TypeError):
                Report("x", {}, {"v": value}, "Verified").render("json")
            with pytest.raises(TypeError):
                json.dumps(value, sort_keys=True, indent=2)

    def test_report_render(self):
        report = Report("x", {"q": 11}, {"steps": [{"A": [[1, 2], [3, 4]], "ok": True}]},
                        "Verified")
        assert "".join(report.render("json")) == json.dumps(report.payload(), sort_keys=True,
                                                            indent=2)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("counterexample", "--q", "11", "--p", "13", "--steps", "10"),
        ("lemma5", "--order", "7", "--a", "2", "--b", "3"),
        ("hilbert", "--matrix", "1,0,2,5"),
    ])
    def test_byte_identical_stdout(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_timing_on_stderr_only(self, capsys):
        _, out, err = run(capsys, "tau", "--a", "7")
        assert "timing_ms" not in out
        assert "timing_ms" in err


SRC = Path(valsweep.__file__).resolve().parents[1]


# Runs `body` in a fresh interpreter and prints, as JSON, the exit code of
# any `main` call in it, then the modules it added, in three groups: valsweep
# submodules (without the prefix), modules from neither the standard library
# nor valsweep, and the slow-to-import dataclasses, fractions and inspect.
_ADDED_MODULES = """
import contextlib, io, sys
before = set(sys.modules)
code = None
{body}
added = set(sys.modules) - before
import json
print(json.dumps([code,
                  sorted(m[9:] for m in added if m.startswith("valsweep.")),
                  sorted(m for m in added
                         if m.split(".")[0] not in sys.stdlib_module_names | {{"valsweep"}}),
                  sorted(added & {{"dataclasses", "fractions", "inspect"}})]))
"""

_RUN_MAIN = """
import valsweep.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = valsweep.cli.main(sys.argv[1:])
"""


def added_modules(body: str, *argv: str) -> list:
    proc = subprocess.run([sys.executable, "-c", _ADDED_MODULES.format(body=body), *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# the valsweep layers each subcommand runs, besides cli and errors
SUBCOMMAND_LAYERS = {
    ("tau", "--a", "7"): ["qfield"],
    ("convergents", "--a", "7"): ["qfield", "transform"],
    ("value", "--a", "3", "--matrix=1,2,3,4"): ["qfield", "valuation"],
    ("transform", "--a", "2"): ["qfield", "transform"],
    ("snf", "--matrix=2,0,0,3"): ["toric"],
    ("hilbert", "--matrix=1,0,1,5"): ["toric"],
    ("regularity", "--matrix=7,9,2,1"): ["toric"],
    ("lemma5", "--order", "211", "--a", "1", "--b", "2"): ["quotient", "toric"],
    ("counterexample", "--q", "11", "--p", "13", "--steps", "5"):
        ["counterexample", "qfield", "quotient", "toric", "transform", "valuation"],
}


class TestPackage:
    def test_cli_import_loads_only_stdlib(self):
        # the package has no runtime dependency, so importing the CLI may add
        # only standard-library modules and valsweep's own; and the value types
        # are NamedTuples, so not dataclasses (nor the inspect it pulls in) or
        # fractions, which would cost every process tens of ms.  Of valsweep,
        # only the errors load: each command imports the layers it runs.
        assert added_modules("import valsweep.cli") == [None, ["cli", "errors"], [], []]

    def test_package_import_loads_no_submodule(self):
        assert added_modules("import valsweep") == [None, [], [], []]

    @pytest.mark.parametrize("argv, layers", SUBCOMMAND_LAYERS.items(),
                             ids=[argv[0] for argv in SUBCOMMAND_LAYERS])
    def test_subcommand_loads_only_its_modules(self, argv, layers):
        # every process compiles what it imports when no bytecode is cached,
        # so a subcommand loads the layers it runs and no other; the stdlib-only
        # and no-dataclasses checks above hold on the command path too
        assert added_modules(_RUN_MAIN, *argv) == [EXIT_OK, sorted(["cli", "errors"] + layers),
                                                   [], []]

    def test_command_line_loads_no_argparse(self):
        # the flag table is the parser, so no process pays for importing
        # argparse and the gettext it loads
        script = ("import sys\nfrom valsweep.cli import main\ncode = main()\n"
                  "print(sorted({'argparse', 'gettext'} & sys.modules.keys()))")
        proc = subprocess.run([sys.executable, "-c", script,
                               "counterexample", "--q", "11", "--p", "13"],
                              env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_module_entry_point_exits_with_main(self):
        # `python -m valsweep.cli` leaves with main's exit code, as the
        # installed console script does
        def spawn(*argv):
            return subprocess.run([sys.executable, "-m", "valsweep.cli", *argv],
                                  env=dict(os.environ, PYTHONPATH=str(SRC)),
                                  capture_output=True, text=True, timeout=60)

        proc = spawn("tau", "--a", "0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_USAGE, "", "error: a must be a positive integer\n")
        proc = spawn("counterexample", "--q", "11", "--p", "13", "--corrupt-step", "3")
        assert proc.returncode == EXIT_FALSIFIED, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "Falsified"

    def test_python_floor_has_the_digit_limit(self):
        # `convergents` calls sys.get_int_max_str_digits(), which CPython has
        # from 3.10.7 on, so the package and the README require that release
        root = Path(__file__).resolve().parents[1]
        pyproject = (root / "pyproject.toml").read_text()
        assert re.findall(r'^requires-python = "(.*)"$', pyproject, re.M) == [">=3.10.7"]
        assert "Requires Python 3.10.7+." in (root / "README.md").read_text()
        assert callable(sys.get_int_max_str_digits)

    def test_error_classes_have_one_home(self):
        from valsweep import errors, quotient, transform, valuation
        assert qfield.QFieldError is errors.QFieldError
        assert valuation.ValuationError is errors.ValuationError
        assert transform.ValuationError is errors.ValuationError
        assert toric.ToricError is errors.ToricError
        assert quotient.QuotientError is errors.QuotientError
        assert counterexample.ConfigError is errors.ConfigError
        assert counterexample.CertificationError is errors.CertificationError
        assert counterexample.Falsified is cli.Falsified is errors.Falsified
        assert errors.ConfigError("steps >= 0", "message").constraint == "steps >= 0"

    def test_only_errors_defines_exception_classes(self):
        # the layers bind their errors back from errors.py; the CLI keeps its own usage error
        defined = {(module.__name__, name)
                   for module in (importlib.import_module(f"valsweep.{path.stem}")
                                  for path in sorted((SRC / "valsweep").glob("*.py"))
                                  if path.stem not in ("__init__", "errors"))
                   for name, obj in vars(module).items()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__}
        assert defined == {("valsweep.cli", "UsageError")}

    def test_no_assert_statements(self):
        # python -O strips assert statements, so no certificate may be one;
        # a failed certificate raises CertificationError, which the CLI reports
        for path in sorted((SRC / "valsweep").glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert lines == [], f"{path.name}: assert statements at lines {lines}"
            bare = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)
                    and "AssertionError" in ast.unparse(node)]
            assert bare == [], f"{path.name}: AssertionError raised at lines {bare}"

    def test_exit_2_has_one_source(self):
        # a self-check that fails is a defect (exit 3), so the one
        # falsification is certify_conflict's, which counterexample reports
        def named(node, name):
            return isinstance(node, ast.Name) and node.id == name

        def scoped(node, function=None):
            """Each node below node, with the innermost function around it."""
            for child in ast.iter_child_nodes(node):
                yield child, function
                inner = child.name if isinstance(child, ast.FunctionDef) else function
                yield from scoped(child, inner)

        raisers = []
        for path in sorted((SRC / "valsweep").glob("*.py")):
            raisers += [(path.stem, function)
                        for node, function in scoped(ast.parse(path.read_text()))
                        if isinstance(node, ast.Raise) and node.exc is not None
                        and named(getattr(node.exc, "func", node.exc), "Falsified")]
        assert raisers == [("counterexample", "certify_conflict")]
        # every Report's verdict, its fourth argument, is "Verified" but the
        # one in cmd_counterexample's `except Falsified` branch
        tree = ast.parse((SRC / "valsweep" / "cli.py").read_text())
        handlers = [node for node, function in scoped(tree) if function == "cmd_counterexample"
                    and isinstance(node, ast.ExceptHandler) and named(node.type, "Falsified")]
        reports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and named(node.func, "Report")]
        falsified = [node for handler in handlers for node in ast.walk(handler) if node in reports]
        assert [ast.unparse(node.args[3]) for node in falsified] == ["'Falsified'"]
        assert [ast.unparse(node.args[3]) for node in reports if node not in falsified] == \
            ["'Verified'"] * (len(reports) - 1)

    def test_no_debug_switch(self):
        # with no assert statement either, no interpreter mode can switch a
        # check off, on lines that no test runs too: python -O sets __debug__
        for path in sorted((SRC / "valsweep").glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and node.id == "__debug__"]
            assert lines == [], f"{path.name}: __debug__ at lines {lines}"


# Help, a small report that reaches stdout only at the flush, and a large one
# written in blocks.
UNWRITABLE = [["--help"], ["tau", "--a", "7"],
              ["counterexample", "--q", "11", "--p", "13", "--steps", "1000"]]
INTERPRETERS = pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
UNWRITABLE_ARGV = pytest.mark.parametrize("argv", UNWRITABLE, ids=lambda argv: argv[0])


def spawn_into(stdout, flags, argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-m", "valsweep.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          text=True, timeout=60)


class TestUnwritableStdout:
    """A stdout that cannot take the report exits 1 without a traceback: a
    broken pipe prints nothing, and any other write error one line.  Each
    stderr is compared whole, so no `Traceback` or `Exception ignored` line
    can pass, the interpreter's final flush included."""

    @INTERPRETERS
    @UNWRITABLE_ARGV
    def test_reader_gone(self, argv, flags):
        read, write = os.pipe()
        os.close(read)  # before the child starts, so its first write fails
        try:
            proc = spawn_into(write, flags, argv)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_USAGE, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @INTERPRETERS
    @UNWRITABLE_ARGV
    def test_device_full(self, argv, flags):
        with open("/dev/full", "w") as full:
            proc = spawn_into(full, flags, argv)
        assert (proc.returncode, proc.stderr) == (
            EXIT_USAGE, f"error: cannot write the report: {os.strerror(errno.ENOSPC)}\n")


FLAGS = ["--q", "--p", "--m", "--n", "--steps", "--a", "--b", "--order", "--corrupt-step"]
# one past each named cap, and inputs that fail in the parser or the commands
CAPS_PLUS_ONE = [str(cap + 1) for cap in (STEPS_MAX, ORDER_MAX, TAU_A_MAX, SNF_N_MAX, CHAIN_MAX)]
MALFORMED = ["", "x", "1.5", "-", "--", "1e3", "0x10", "+5", "-0", " 7 ", "\u0663", "nan"]
INT_TOKENS = (st.integers(-3, 40).map(str)
              | st.sampled_from(CAPS_PLUS_ONE + MALFORMED
                                + [LONG_TOKEN, GROUPED_TOKEN, JUNK_TOKEN]))
MATRIX_TOKENS = (st.lists(st.integers(-6, 6), max_size=10).map(lambda xs: ",".join(map(str, xs)))
                 | st.sampled_from([",".join(["1"] * (SNF_N_MAX + 1) ** 2),
                                    f"1,0,1,{CHAIN_MAX}", f"{CHAIN_MAX},-1,0,1",
                                    "1,,2,3", "a,b,c,d", "1,2,3", "-1,0,0,1", GROUPED_TOKEN,
                                    JUNK_TOKEN] + MALFORMED))


@st.composite
def argvs(draw):
    """A subcommand (or a stray token) with a random subset of its own flags,
    and one time in eight a flag of another subcommand."""
    argv = [draw(st.sampled_from(sorted(COMMANDS) + ["", "bogus", "-h"]))]
    required, optional = OWN.get(argv[0], (FLAGS + ["--matrix"], []))
    flags = draw(st.lists(st.sampled_from(required + optional), unique=True))
    if draw(st.integers(0, 7)) == 0:
        flags.append(draw(st.sampled_from(FLAGS + ["--matrix"])))
    for flag in flags:
        if flag != "--matrix":
            argv += [flag, draw(INT_TOKENS)]
    if "--matrix" in flags:
        matrix = draw(MATRIX_TOKENS)
        argv += draw(st.sampled_from([[f"--matrix={matrix}"], ["--matrix", matrix]]))
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "text", "xml"]))]
    return argv + draw(st.lists(st.sampled_from(["--bogus", "extra", "--steps"]), max_size=1))


class TestArgvFuzz:
    """No argv makes main raise, and every exit code is a documented one."""

    @settings(max_examples=200, deadline=None)
    @given(argvs())
    @example(["hilbert", f"--matrix=1,0,1,{CHAIN_MAX}"])
    @example(["hilbert", "--matrix=--"])
    @example(["counterexample", "--q", "11", "--p", "13", "--corrupt-step=--"])
    @example(["lemma5", "--order", str(ORDER_MAX + 1), "--a", "1", "--b", "2"])
    @example(["counterexample", "--q", "11", "--p", "13", "--steps", "40",
              "--corrupt-step", "40", "--format", "text"])
    @example(["transform", "--a", "7", "--steps", "-1"])
    @example(["snf", "--matrix=" + "7" * 4000 + ",1,1," + "7" * 4000])
    @example(["snf", f"--matrix={LONG_TOKEN},1,1,1"])
    @example(["counterexample", "--q", "11", "--p", LONG_TOKEN])
    @example(["convergents", "--a", GROUPED_TOKEN])
    @example(["hilbert", "--matrix", f"1,{JUNK_TOKEN},1,1"])
    @example(["tau", "--a", "7", "--steps", "5", "--q", "3", "--matrix=1,2",
              "--corrupt-step", "9"])
    def test_main_never_raises(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_FALSIFIED, EXIT_CERTIFICATE)
        assert "Traceback" not in err.getvalue()
        assert (out.getvalue() == "") == (code == EXIT_USAGE), argv
        # an error names its cause and echoes no unbounded input
        assert len(err.getvalue()) < 1000, argv
