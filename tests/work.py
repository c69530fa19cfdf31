"""The work ledger: deterministic counts of the work each argv does in src.

    PYTHONPATH=src python3 tests/work.py record [LEDGER]
    PYTHONPATH=src python3 tests/work.py diff OLD [NEW]
    PYTHONPATH=src python3 tests/work.py check

Each argv of `ARGVS` runs in process through `valsweep.cli.main`, once to
warm up (imports) and once more under `sys.settrace` with `f_trace_opcodes`.
The second run gives the argv's entry: its exit code, the opcodes run in each
src module, the calls of each src function (a generator's resumptions are not
calls), the bytes on stdout, and the bit length of the largest integer that a
JSON report prints.  Bigint work, which opcodes do not count, is bounded by
the last two.  Wall time is not recorded: the counts are the same on every
warm repeat, while wall time drifts.

`record` writes the ledger, stamped with the Python version, to LEDGER
(`work_counts.json` beside this file by default).  `diff` prints, for each argv,
the src opcodes in ledger OLD against NEW (by default a replay now), so
recording OLD with another checkout's src on PYTHONPATH compares two
revisions.  `check` replays twice and exits 1 if the replays differ, if the
ledger does not name exactly `ARGVS`, or, when it was recorded on this Python
version, if the replay differs from it; opcode counts differ across versions.
"""

from __future__ import annotations

import contextlib
import dis
import io
import json
import platform
import sys
from collections import Counter
from pathlib import Path

import valsweep
from valsweep.cli import main

from corpus import admissible_pairs

LEDGER = Path(__file__).with_name("work_counts.json")
SRC = Path(valsweep.__file__).resolve().parent


def _counterexample(q, p, steps=None, mn=None, corrupt_step=None) -> list[str]:
    """A counterexample argv with its flags in the order bench/run.py gives them."""
    argv = ["counterexample", "--q", str(q), "--p", str(p)]
    if mn is not None:
        argv += ["--m", str(mn), "--n", str(mn)]
    if steps is not None:
        argv += ["--steps", str(steps)]
    if corrupt_step is not None:
        argv += ["--corrupt-step", str(corrupt_step)]
    return argv


# Every argv of the four bench workloads: each of the 32 cx-batch pairs (q <= 37,
# m = n = p - q + 1) and its falsification probe, cx-wide, cx-long and lemma5-p211.
# Then the deep cases of the ROADMAP Baseline at 2,000 steps, or with a chain and
# an order near 2,000, and `transform` at 1,000 steps.
ARGVS = [
    *[_counterexample(q, p, 25, p - q + 1) for q, p in admissible_pairs(38)],
    _counterexample(11, 13, corrupt_step=3),
    _counterexample(197, 199, 25),
    _counterexample(11, 13, 1000),
    ["lemma5", "--order", "211", "--a", "1", "--b", "2"],
    _counterexample(11, 13, 2000),
    ["transform", "--a", "1", "--steps", "2000"],
    ["convergents", "--a", "1", "--steps", "2000"],
    ["hilbert", "--matrix=1,0,1,2000"],
    ["lemma5", "--order", "1999", "--a", "1", "--b", "2"],
    ["transform", "--a", "7", "--steps", "1000"],
]


def key(argv: list[str]) -> str:
    return " ".join(argv)


def _largest_bits(value) -> int:
    """The bit length of the largest integer, in absolute value, in a JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return max(map(_largest_bits, value), default=0)
    return abs(value).bit_length() if type(value) is int else 0


class _Tracer:
    """Opcodes per src module and calls per src function, under `sys.settrace`."""

    def __init__(self):
        self.opcodes: Counter = Counter()
        self.calls: Counter = Counter()
        self._codes: dict = {}  # code -> (module, qualified name, offset of its first entry)

    def _code(self, code):
        found = self._codes.get(code)
        if found is None:
            path = Path(code.co_filename)
            if path.parent != SRC:
                found = (None, None, None)
            else:
                # a fresh frame stops at its first RESUME (Python 3.11+), or before its
                # first instruction (-1); a resumed generator stops past either
                entry = next((i.offset for i in dis.get_instructions(code)
                              if i.opname == "RESUME"), -1)
                found = (path.stem, getattr(code, "co_qualname", code.co_name), entry)
            self._codes[code] = found
        return found

    def __call__(self, frame, event, arg):
        module, name, entry = self._code(frame.f_code)
        if module is None:
            return None
        if frame.f_lasti == entry:
            self.calls[f"{module}.{name}"] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        opcodes = self.opcodes

        def local(frame, event, arg):
            if event == "opcode":
                opcodes[module] += 1
            return local

        return local


def _run(argv: list[str], tracer=None) -> tuple[int, str]:
    """main(argv) under `tracer`, if any: its exit code and stdout."""
    out, before = io.StringIO(), sys.gettrace()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(tracer)
        try:
            code = main(argv)
        finally:
            sys.settrace(before)
    return code, out.getvalue()


def measure(argv: list[str]) -> dict:
    """The ledger entry of one argv, from a traced run after a warm one."""
    _run(argv)
    tracer = _Tracer()
    code, text = _run(argv, tracer)
    return {"exit": code, "opcodes": dict(sorted(tracer.opcodes.items())),
            "calls": dict(sorted(tracer.calls.items())), "stdout_bytes": len(text.encode()),
            "entry_bits_max": _largest_bits(json.loads(text)) if text else 0}


def replay() -> dict:
    return {key(argv): measure(argv) for argv in ARGVS}


def stamp() -> str:
    return platform.python_version()


def read(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def write(path: Path, entries: dict) -> None:
    Path(path).write_text(json.dumps({"python": stamp(), "argv": entries},
                                     indent=1, sort_keys=True) + "\n")


def total(entry: dict) -> int:
    return sum(entry["opcodes"].values())


def diff(old: dict, new: dict) -> list[str]:
    """One line per argv of either ledger: src opcodes old -> new, the change,
    and any change in exit code, stdout bytes or largest entry bits."""
    lines = []
    for name in dict.fromkeys([*old["argv"], *new["argv"]]):
        a, b = old["argv"].get(name), new["argv"].get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'NEW' if a is None else 'OLD'}")
            continue
        before, after = total(a), total(b)
        line = f"{name}: {before:,} -> {after:,} ({after - before:+,}"
        line += f", {100 * (after - before) / before:+.1f}%)" if before else ")"
        for field in ("exit", "stdout_bytes", "entry_bits_max"):
            if a[field] != b[field]:
                line += f"; {field} {a[field]} -> {b[field]}"
        lines.append(line)
    return lines


def check() -> list[str]:
    """The problems `check` finds."""
    first, second = replay(), replay()
    problems = [f"{name}: two replays differ" for name in first if first[name] != second[name]]
    ledger = read(LEDGER) if LEDGER.exists() else {"python": None, "argv": {}}
    if sorted(ledger["argv"]) != sorted(first):
        problems.append(f"{LEDGER.name} does not name exactly the argv of ARGVS")
    elif ledger["python"] == stamp():
        problems += [f"{name}: differs from {LEDGER.name}" for name in first
                     if first[name] != ledger["argv"][name]]
    else:
        print(f"{LEDGER.name} was recorded on Python {ledger['python']}, "
              f"not {stamp()}: its counts are not compared")
    return problems


def _main(argv: list[str]) -> int:
    action, *paths = argv or [""]
    if (action, len(paths)) not in {("record", 0), ("record", 1), ("diff", 1), ("diff", 2),
                                    ("check", 0)}:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    if action == "record":
        write(Path(paths[0]) if paths else LEDGER, replay())
        return 0
    if action == "diff":
        new = read(paths[1]) if len(paths) == 2 else {"python": stamp(), "argv": replay()}
        print("\n".join(diff(read(paths[0]), new)))
        return 0
    problems = check()
    print("\n".join(problems) or f"{len(ARGVS)} argv, two replays equal, ledger ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
