"""The per-record templates of the report against json.dumps.

Every per-step record list (counterexample steps, transform states, and
each list of integer pairs) is rendered from one `%` template at the
indent where it sits.  The oracle for the JSON report is
json.dumps(payload, sort_keys=True, indent=2) of the same payload built
from plain dicts and lists; the oracle for --format text is the text
projection below, built from that payload.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import step_labels, value_steps
from valsweep import cli
from valsweep.cli import (EXIT_FALSIFIED, EXIT_OK, EXIT_USAGE, STEPS_MAX, Records, Report,
                          _step_records, main)
from valsweep.counterexample import (Falsified, InstanceConfig, StepRecord, build,
                                     certify_conflict, singularity_sweep)
from valsweep.qfield import tau_from_a
from valsweep.toric import det_int
from valsweep.transform import TransformState
from valsweep.valuation import ValueElement


def text_oracle(payload) -> str:
    """`key: value` per scalar, nested dicts indented two spaces, and one
    `- <json.dumps(item, sort_keys=True)>` line per list item."""
    lines = [f"command: {payload['command']}", f"verdict: {payload['verdict']}", "inputs:"]
    lines += [f"  {k}: {payload['inputs'][k]}" for k in sorted(payload["inputs"])]
    lines.append("results:")

    def walk(value, indent):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, dict):
                lines.append(f"{indent}{k}:")
                walk(v, indent + "  ")
            elif isinstance(v, list):
                lines.append(f"{indent}{k}:")
                lines.extend(f"{indent}  - {json.dumps(x, sort_keys=True)}" for x in v)
            else:
                lines.append(f"{indent}{k}: {v}")

    walk(payload["results"], "  ")
    return "\n".join(lines)


def step_dict(r: StepRecord) -> dict:
    return {"branch": r.branch, "step": r.step,
            "A": [list(r.matrix[0]), list(r.matrix[1])], "det": r.det,
            "regularity": "Regular" if r.regular else "Singular",
            "embedding_dim": r.embedding_dim}


def render(report: Report, fmt: str) -> str:
    return "".join(report.render(fmt))


def assert_renders_like_oracle(report: Report, oracle_results: dict) -> None:
    oracle = report._replace(results=oracle_results).payload()
    assert render(report, "json") == json.dumps(oracle, sort_keys=True, indent=2)
    assert render(report, "text") == text_oracle(oracle)


# Integers of up to 4001 bits drawn from a sign, a shift and a 64-bit
# mantissa: a few bytes of entropy each, so eight records of six entries
# stay inside hypothesis's entropy budget.
BIG = st.one_of(st.integers(-2 ** 64, 2 ** 64), st.builds(
    lambda sign, shift, mantissa: sign * min(mantissa << shift, 2 ** 4000),
    st.sampled_from([-1, 1]), st.integers(0, 4000), st.integers(0, 2 ** 64)))
STEP_RECORDS = st.lists(st.builds(
    StepRecord, st.sampled_from(["nu1", "nu2"]), st.integers(0, STEPS_MAX),
    st.tuples(st.tuples(BIG, BIG), st.tuples(BIG, BIG)), BIG, st.booleans(),
    BIG.map(lambda x: max(abs(x), 2))), max_size=8)


class TestStepTemplate:
    @settings(max_examples=60, deadline=None)
    @given(STEP_RECORDS, st.sampled_from(["Verified", "Falsified"]))
    @example([StepRecord("nu1", 0, ((7, 9), (2, 1)), -11, False, 7),
              StepRecord("nu2", 3, ((1, 0), (0, 1)), 1, True, 2),
              StepRecord("nu2", 4, ((-2 ** 4000, 2 ** 4000), (0, -1)), 2 ** 4000, False, 3)],
             "Falsified")
    def test_matches_json_dumps(self, records, verdict):
        report = Report("counterexample", {"q": 11, "p": 13},
                        {"steps": _step_records(records), "conflict": True}, verdict)
        assert_renders_like_oracle(report, {"steps": [step_dict(r) for r in records],
                                            "conflict": True})

    @pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1025])
    def test_block_boundaries(self, count):
        # rows are joined in blocks of _BLOCK_ROWS; the separators between
        # blocks must match those inside one
        rows = [(k, -k, 2 * k, k * k) for k in range(count)]
        skeleton = {"A": [cli._PAIR, cli._PAIR]}
        report = Report("x", {}, {"rows": Records(skeleton, rows), "n": {"deep": Records(
            cli._PAIR, [row[:2] for row in rows])}}, "Verified")
        assert_renders_like_oracle(report, {
            "rows": [{"A": [[a, b], [c, d]]} for a, b, c, d in rows],
            "n": {"deep": [[a, b] for a, b, _, _ in rows]}})

    def test_percent_signs_survive(self):
        report = Report("x", {}, {"rows": Records({"100%": cli._INT, "%d": cli._TEXT},
                                                  [('"%s"', 5)])}, "Verified")
        assert_renders_like_oracle(report, {"rows": [{"100%": 5, "%d": "%s"}]})


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_both_formats(*argv, expect=EXIT_OK) -> dict:
    """Run argv in JSON and text; check each against the oracle built from
    the parsed JSON payload, and return that payload."""
    code, out, _ = run(*argv, "--format", "json")
    assert code == expect
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    code, text, _ = run(*argv, "--format", "text")
    assert code == expect
    assert text == text_oracle(payload) + "\n"
    return payload


class TestCommandsAgainstOracle:
    @pytest.mark.parametrize("steps", [0, 1, 1000])
    def test_counterexample(self, steps):
        payload = run_both_formats("counterexample", "--q", "11", "--p", "13",
                                   "--steps", str(steps))
        records, _ = certify_conflict(singularity_sweep(build(InstanceConfig(11, 13, 3, 3, steps))))
        assert payload["results"]["steps"] == [step_dict(r) for r in records]
        assert payload["verdict"] == "Verified"

    @pytest.mark.parametrize("step", [0, 3, 60])
    def test_corrupt_step_falsified(self, step):
        payload = run_both_formats("counterexample", "--q", "11", "--p", "13", "--steps", "60",
                                   "--corrupt-step", str(step), expect=EXIT_FALSIFIED)
        sweep = singularity_sweep(build(InstanceConfig(11, 13, 3, 3, 60)))
        with pytest.raises(Falsified) as exc:
            certify_conflict(sweep, corrupt_step=step)
        assert payload["results"]["steps"] == [step_dict(r) for r in exc.value.records]
        assert payload["results"]["falsification"] == str(exc.value)
        assert payload["verdict"] == "Falsified"

    @pytest.mark.parametrize("a, steps", [(7, 0), (1, 300), (999979, STEPS_MAX)])
    def test_transform(self, a, steps):
        payload = run_both_formats("transform", "--a", str(a), "--steps", str(steps))
        tau = tau_from_a(a)
        initial = TransformState(((1, 0), (0, 1)), (ValueElement.make(0, 1, 1, tau),
                                                    ValueElement.make(1, 0, 1, tau)))
        states = value_steps(initial, steps)
        assert payload["results"]["states"] == [
            {"step_index": k, "A": [list(a[0]), list(a[1])], "det": det_int(a),
             "branch": label}
            for k, ((a, _), label) in enumerate(zip(states, step_labels(states)))]
        assert payload["results"]["det_constant"] is True

    @pytest.mark.parametrize("argv", [
        ("convergents", "--a", "7", "--steps", "600"),
        ("convergents", "--a", "3", "--steps", "1"),
        ("hilbert", "--matrix=1,0,1,600"),
        ("lemma5", "--order", "401", "--a", "1", "--b", "2"),
        ("lemma5", "--order", "7", "--a", "0", "--b", "3"),
        ("value", "--a", "3", "--matrix", "1,2,3,4,0,7,9,0,5,5,6,6,8,1,0,0"),
        ("snf", "--matrix", "2,4,4,-6,6,12,10,-4,-16"),
    ])
    def test_pair_lists(self, argv):
        run_both_formats(*argv)


@pytest.fixture
def digit_limit_640():
    """The smallest int-to-str digit limit the interpreter allows."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(old)


class TestDigitLimit:
    """A record integer past the digit limit: exit 1, empty stdout."""

    @pytest.mark.parametrize("argv", [
        ("counterexample", "--q", "11", "--p", "13", "--steps", "6000"),
        ("transform", "--a", "1", "--steps", "4000"),
        ("convergents", "--a", "1", "--steps", "4000"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_past_the_limit(self, digit_limit_640, argv, fmt):
        code, out, err = run(*argv, "--format", fmt)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: violated constraint [integers of at most 640 digits]")


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_written_in_a_few_blocks(fmt):
    # each write is a system call on an unbuffered stdout: 2002 records go
    # out in a few blocks, not one write per record
    out = CountingStdout()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["counterexample", "--q", "11", "--p", "13", "--steps", "1000",
                     "--format", fmt])
    assert code == EXIT_OK
    assert out.writes <= 8
    assert out.getvalue().count('\n    - {"A": ' if fmt == "text" else '"branch": ') == 2002
