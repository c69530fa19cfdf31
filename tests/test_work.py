"""Tier-1 checks of the work ledger (tests/work.py): two replays give equal
counts, and the ledger names every argv of the bench workloads.  The counts
are not pinned here, since they differ across Python versions and every src
edit moves them; `python tests/work.py check` compares them with
work_counts.json on the Python version that recorded it."""

import importlib.util
import json
import sys
from pathlib import Path

import work

ROOT = Path(__file__).resolve().parents[1]


def bench_argvs() -> set[str]:
    """Every argv that bench/run.py's `workload()` yields for seeds 1-8, on
    each workload of BENCHMARK.json."""
    sys.path.insert(0, str(ROOT / "bench"))  # run.py imports its oracle module
    try:
        spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
        run = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(ROOT / "bench"))
        sys.modules.pop("bench_run", None)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return {work.key(inv.argv) for name in names for seed in range(1, 9)
            for inv in run.workload(name, seed)}


def test_two_replays_give_equal_counts():
    first = work.replay()
    assert all(entry["opcodes"] for entry in first.values())
    assert work.replay() == first


def test_the_ledger_names_every_argv_of_the_list():
    keys = [work.key(argv) for argv in work.ARGVS]
    assert len(set(keys)) == len(keys)
    assert sorted(work.read(work.LEDGER)["argv"]) == sorted(keys)


def test_the_ledger_names_every_bench_argv():
    assert bench_argvs() <= set(work.read(work.LEDGER)["argv"])
