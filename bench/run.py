"""valsweep benchmark: time to a certified verdict, end to end and by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of `valsweep` invocations; only cx-batch draws
its (q, p) pairs from the seed.  They run as a user runs them: one fresh
interpreter per invocation, loading this checkout's src/, strictly one
after another (a closed loop with one client).  Passes over the list
repeat until S seconds have gone.  Outside the timed region every output
is checked: exit code, an independent oracle (oracle.py) and the stdout
sha256 recorded in digests.json.  An invocation that fails any check
counts in `failed`; failed / attempted is the fail ratio.

--trace 0 reports the end-to-end metrics:
  verdict_s    median over passes of the wall time of one pass, each
               invocation timed from spawn to exit, imports included
  setup_s      median wall time of a fresh interpreter that runs
               `import valsweep.cli` and exits; one spawn per pass and
               at least SETUP_SPAWNS
  peak_rss_mb  highest peak RSS of any single invocation, from os.wait4
--trace 1 runs each invocation twice per pass, untraced and under
traced_cli.py, and reports per-layer metrics (medians over passes of
per-pass totals) and the scaling series of series.py.  A layer's `_s`
is its self time; `cli.command_s` is the whole command span, and
`cli.import_s` the median time of one `import valsweep.cli`.
`toric.hilbert_points` is computed, not counted: (|det| + 1)^2 summed
over hilbert_basis_2d cache misses.  A layer the workload never reaches
reads 0.

The metric names and units come from BENCHMARK.json.  The last stdout
line is the result as JSON; a fuller record stamped with the environment
goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"

CLI = "import sys; from valsweep.cli import main; sys.exit(main())"
IMPORT_CLI = "import valsweep.cli"
IMPORT_NUMPY = ("import time; t = time.perf_counter(); import numpy; "
                "print(time.perf_counter() - t)")
PREFLIGHT = """\
import json, sys, valsweep.cli
loaded = "numpy" in sys.modules
try:
    import numpy
    version = numpy.__version__
except ImportError:
    version = None
print(json.dumps({"valsweep_file": sys.modules["valsweep"].__file__,
                  "numpy": version, "cli_imports_numpy": loaded}))
"""
SETUP_SPAWNS = 7
NUMPY_SPAWNS = 3


@dataclass(frozen=True)
class Invocation:
    argv: list[str]
    expect_exit: int
    oracle: Callable[[bytes], list[str]]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def counterexample(q: int, p: int, steps: int | None = None, m: int | None = None,
                   corrupt_step: int | None = None) -> Invocation:
    argv = ["counterexample", "--q", str(q), "--p", str(p)]
    if m is not None:
        argv += ["--m", str(m), "--n", str(m)]
    if steps is not None:
        argv += ["--steps", str(steps)]
    if corrupt_step is not None:
        argv += ["--corrupt-step", str(corrupt_step)]
    check = partial(oracle.check_counterexample, q=q, p=p, m=m or 3, n=m or 3,
                    steps=25 if steps is None else steps, corrupt_step=corrupt_step)
    return Invocation(argv, 0 if corrupt_step is None else 2, check)


def lemma5(order: int, a: int, b: int) -> Invocation:
    argv = ["lemma5", "--order", str(order), "--a", str(a), "--b", str(b)]
    return Invocation(argv, 0, partial(oracle.check_lemma5, order=order, a=a, b=b))


def batch_pair(q: int, p: int) -> Invocation:
    # m = n: the smallest odd integer above p - q (an even gap).
    return counterexample(q, p, steps=25, m=p - q + 1)


BATCH_PAIRS = oracle.admissible_pairs(37)


def workload(name: str, seed: int) -> list[Invocation]:
    if name == "cx-batch":
        # One pair per q, so every seed does a similar amount of work.
        rng = random.Random(seed)
        qs = sorted({q for q, _ in BATCH_PAIRS})
        pairs = [(q, rng.choice([p for qq, p in BATCH_PAIRS if qq == q])) for q in qs]
        rng.shuffle(pairs)
        return ([batch_pair(q, p) for q, p in pairs]
                + [counterexample(11, 13, corrupt_step=3)])
    if name == "cx-wide":
        return [counterexample(197, 199, steps=25)]
    if name == "cx-long":
        return [counterexample(11, 13, steps=1000)]
    if name == "lemma5-p211":
        return [lemma5(211, 1, 2)]
    raise SystemExit(f"unknown workload {name!r}")


@dataclass
class Result:
    wall_s: float
    rss_mb: float
    exit: int
    stdout: bytes
    stderr: bytes

    def timing_ms(self) -> float:
        """The command time valsweep prints on stderr."""
        found = re.search(rb"timing_ms: ([0-9.]+)", self.stderr)
        return float(found.group(1)) if found else 0.0


def spawn(args: list[str]) -> Result:
    """Run a fresh interpreter with this checkout's src/ on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()  # small: valsweep writes one line here
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Result(wall, usage.ru_maxrss / 1024.0, proc.returncode, out, err)


class Checker:
    """Checks every invocation's output; oracle verdicts are cached per digest."""

    def __init__(self):
        self.digests = json.loads(DIGESTS.read_text())
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, inv: Invocation, res: Result, same_as: bytes | None = None) -> None:
        self.attempted += 1
        sha = hashlib.sha256(res.stdout).hexdigest()
        problems = []
        if res.exit != inv.expect_exit:
            problems.append(f"exit {res.exit}, expected {inv.expect_exit}")
        if self.digests.get(inv.key) != sha:
            problems.append("stdout sha256 differs from the recorded digest")
        if same_as is not None and res.stdout != same_as:
            problems.append("traced stdout differs from untraced stdout")
        if (inv.key, sha) not in self.verdicts:
            self.verdicts[(inv.key, sha)] = inv.oracle(res.stdout)
        problems += self.verdicts[(inv.key, sha)]
        if problems:
            self.failures.append(f"{inv.key}: {'; '.join(problems)}")


def tail(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"samples": n, "median": statistics.median(ordered)}
    if n > 10:
        out["tail"] = {"percentile": round(100 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return out


def setup_time() -> float:
    res = spawn(["-c", IMPORT_CLI])
    if res.exit != 0:
        raise SystemExit(f"import valsweep.cli failed: {res.stderr.decode()}")
    return res.wall_s


def run_plain(invs: list[Invocation], seconds: float, checker: Checker) -> tuple[dict, dict]:
    # One set-up spawn per pass, so set-up is sampled across the whole run.
    setup_times, verdicts, peak = [], [], 0.0
    deadline = time.perf_counter() + seconds
    while not verdicts or time.perf_counter() < deadline:
        setup_times.append(setup_time())
        results = [spawn(["-c", CLI, *inv.argv]) for inv in invs]
        verdicts.append(sum(r.wall_s for r in results))
        peak = max(peak, *(r.rss_mb for r in results))
        for inv, res in zip(invs, results):
            checker.check(inv, res)
    while len(setup_times) < SETUP_SPAWNS:
        setup_times.append(setup_time())
    metrics = {"verdict_s": statistics.median(verdicts),
               "setup_s": statistics.median(setup_times), "peak_rss_mb": peak}
    return metrics, {"verdict_s": tail(verdicts), "setup_s": tail(setup_times)}


def span_totals(record: dict) -> dict[str, float]:
    """Per-layer self time and call count, plus the command's own totals.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process nest, so children never overlap.
    """
    names, spans = record["names"], record["spans"]
    self_ns = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    out: dict[str, float] = {"command_ns": 0, "command_self_ns": 0}
    for name in names:  # every wrapped layer, called or not
        if name != "cli.command":
            out[f"{name}_s"], out[f"{name}_calls"] = 0.0, 0
    for (name_index, _, start, end), own in zip(spans, self_ns):
        name = names[name_index]
        if name == "cli.command":
            out["command_ns"] += end - start
            out["command_self_ns"] += own
            continue
        out[f"{name}_s"] += own / 1e9
        out[f"{name}_calls"] += 1
    counters = record["counters"]
    out["toric.hilbert_points"] = counters["hilbert_points"]
    out["toric.hilbert_hits"] = counters["hilbert_hits"]
    out["transform.entry_bits_max"] = counters["entry_bits_max"]
    out["valuation.element_make_calls"] = counters["element_make_calls"]
    out["import_s"] = record["import_ns"] / 1e9
    return out


def pass_metrics(inputs: list[dict]) -> dict[str, float]:
    """Combine the traced inputs of one pass into that pass's metrics."""
    total: dict[str, float] = {}
    for per_input in inputs:
        for name, value in per_input.items():
            total[name] = total.get(name, 0) + value
    calls = total["toric.hilbert_calls"]
    hits = total.pop("toric.hilbert_hits")
    command_ns = total.pop("command_ns")
    covered_ns = command_ns - total.pop("command_self_ns")
    plain_ms, traced_ms = total.pop("plain_ms"), total.pop("traced_ms")
    del total["import_s"]
    total.update({
        "cli.import_s": statistics.median(i["import_s"] for i in inputs),
        "cli.command_s": command_ns / 1e9,
        "transform.entry_bits_max": max(i["transform.entry_bits_max"] for i in inputs),
        "toric.hilbert_cache_hit_ratio": hits / calls if calls else 0.0,
        "trace.overhead_ratio": traced_ms / plain_ms if plain_ms else 0.0,
        "trace.layer_share": covered_ns / command_ns if command_ns else 0.0,
    })
    return total


def run_traced(invs: list[Invocation], seconds: float, checker: Checker,
               numpy_loaded: bool, name: str) -> tuple[dict, dict]:
    numpy_s = (statistics.median(float(spawn(["-c", IMPORT_NUMPY]).stdout)
                                 for _ in range(NUMPY_SPAWNS))
               if numpy_loaded else 0.0)
    spans_dir = RESULTS / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    passes, first_pass, absent = [], [], set()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        inputs = []
        for index, inv in enumerate(invs):
            plain = spawn(["-c", CLI, *inv.argv])
            checker.check(inv, plain)
            spans_path = spans_dir / f"{name}-{index}.json"
            spans_path.unlink(missing_ok=True)
            traced = spawn([str(BENCH / "traced_cli.py"), str(spans_path), *inv.argv])
            checker.check(inv, traced, same_as=plain.stdout)
            if not spans_path.exists():
                raise SystemExit(f"traced run wrote no spans: {traced.stderr.decode()}")
            record = json.loads(spans_path.read_text())
            absent.update(record["absent"])
            per_input = span_totals(record)
            per_input.update({"cli.stdout_bytes": len(traced.stdout),
                              "plain_ms": plain.timing_ms(), "traced_ms": traced.timing_ms()})
            inputs.append(per_input)
        if not passes:
            first_pass = [dict(i, argv=inv.key) for i, inv in zip(inputs, invs)]
        passes.append(pass_metrics(inputs))
    series_run = spawn([str(BENCH / "series.py")])
    if series_run.exit != 0:
        raise SystemExit(f"scaling series failed: {series_run.stderr.decode()}")
    metrics = {key: statistics.median(p.get(key, 0) for p in passes)
               for key in set().union(*passes)}
    metrics["cli.import_numpy_s"] = numpy_s
    metrics.update(json.loads(series_run.stdout))
    # A layer function missing from valsweep reports zero; say which.
    return metrics, {"passes": len(passes), "inputs": first_pass, "absent": sorted(absent)}


def git_state() -> dict:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                               capture_output=True, text=True)
    except OSError:
        return {"git_rev": None, "git_dirty": None}
    if rev.returncode != 0:
        return {"git_rev": None, "git_dirty": None}
    return {"git_rev": rev.stdout.strip(), "git_dirty": bool(dirty.stdout.strip())}


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    invs = workload(args.workload, args.seed)
    load_start = loadavg()

    pre = spawn(["-c", PREFLIGHT])
    if pre.exit != 0:
        raise SystemExit(f"cannot import valsweep from {SRC}: {pre.stderr.decode()}")
    env = json.loads(pre.stdout)
    if not Path(env["valsweep_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"valsweep loaded from {env['valsweep_file']}, not from {SRC}")

    checker = Checker()
    if args.trace:
        measured, detail = run_traced(invs, args.seconds, checker,
                                      env["cli_imports_numpy"], args.workload)
    else:
        measured, detail = run_plain(invs, args.seconds, checker)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(checker.failures)
    result = {"correct": failed == 0, "attempted": checker.attempted, "failed": failed,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": [inv.key for inv in invs],
        "fail_ratio": failed / checker.attempted, "failures": checker.failures[:20],
        "environment": {
            "python": platform.python_version(), "numpy": env["numpy"],
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            **git_state(), "loadavg_start": load_start, "loadavg_end": loadavg(),
            "valsweep_file": str(Path(env["valsweep_file"]).resolve()),
        },
        "detail": detail, "all_metrics": measured, "result": result,
    }
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for failure in checker.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"fail_ratio {failed}/{checker.attempted}; record in {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
