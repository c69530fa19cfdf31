"""Run one valsweep command with a span around every call into a layer.

    PYTHONPATH=src python3 bench/traced_cli.py SPANS_JSON ARGV...

The command runs as `valsweep ARGV...` does, with the same stdout and
exit code.  Before it runs, each public function in LAYERS is rebound,
in every valsweep module that holds it, to a wrapper that records a span:
name, parent span, start and end.  Spans stay in memory; when the command
returns they are written to SPANS_JSON together with the import time of
valsweep.cli and a few counters.  valsweep itself is not changed.
"""

import sys
import time

_import_start = time.perf_counter_ns()
import valsweep.cli  # noqa: E402  -- timed: this is the import a user pays for
_import_end = time.perf_counter_ns()

import functools  # noqa: E402
import json  # noqa: E402

from valsweep import (cli, counterexample, qfield, quotient, toric,  # noqa: E402
                      transform, valuation)

# (namespace, attribute, span name).  When calls of one name nest (the
# recursion in det_int), only the outermost becomes a span.
LAYERS = [
    (cli.Report, "render", "cli.render"),
    (counterexample, "build", "counterexample.build"),
    (counterexample, "derive_diagonal_action", "counterexample.derive_action"),
    (counterexample, "singularity_sweep", "counterexample.sweep"),
    (counterexample, "contradiction_report", "counterexample.contradiction"),
    (toric, "below_ring_regularity", "toric.regularity"),
    (toric, "hilbert_basis_2d", "toric.hilbert"),
    (toric, "det_int", "toric.det"),
    (toric, "smith_normal_form", "toric.snf"),
    (toric, "semigroup_contains", "toric.semigroup_contains"),
    (transform, "quadratic_step", "transform.step"),
    (qfield.QuadExt, "make", "qfield.make"),
    (qfield, "squarefree_decompose", "qfield.squarefree"),
    (valuation, "group_index", "valuation.group_index"),
    (quotient, "invariant_generators", "quotient.invariant_generators"),
]


class Tracer:
    """Spans and counters of one command, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, parent span or -1, start ns, end ns]
        self.stack: list[int] = []
        self.open: set[str] = set()
        self.counters = {"hilbert_points": 0, "entry_bits_max": 0, "element_make_calls": 0}
        self.absent: list[str] = []
        self._hilbert = getattr(toric, "hilbert_basis_2d", None)
        self._hilbert_calls = 0
        self._hilbert_misses = 0

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, after=None):
        name_index = self._name_index(name)
        spans, stack, open_names, clock = self.spans, self.stack, self.open, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            span = [name_index, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            open_names.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                open_names.discard(name)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name in LAYERS:
            raw = vars(owner).get(attr)
            if raw is None:  # reported as zero, and listed as absent
                self.absent.append(f"{owner.__name__}.{attr}")
                self._name_index(name)
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            after = {"toric.hilbert": self._after_hilbert,
                     "transform.step": self._after_step}.get(name)
            wrapped = self.wrap(name, fn, after)
            if isinstance(owner, type):
                setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            else:
                _rebind(fn, wrapped)
        for key, command in cli.COMMANDS.items():
            cli.COMMANDS[key] = self.wrap("cli.command", command)
        make = vars(valuation.ValueElement)["make"].__func__

        def counted_make(*args, **kwargs):
            self.counters["element_make_calls"] += 1
            return make(*args, **kwargs)

        valuation.ValueElement.make = staticmethod(counted_make)

    def _cache_info(self) -> tuple[int, int]:
        """(hits, misses) of hilbert_basis_2d's cache; without one, every call misses."""
        info = getattr(self._hilbert, "cache_info", None)
        if info is None:
            return 0, self._hilbert_calls
        return info().hits, info().misses

    def _after_hilbert(self, args, result):
        # Points the enumeration visits on a cache miss: (|det| + 1)^2.
        self._hilbert_calls += 1
        misses = self._cache_info()[1]
        if misses > self._hilbert_misses:
            self._hilbert_misses = misses
            (a, b), (c, d) = result.rays
            self.counters["hilbert_points"] += (abs(a * d - b * c) + 1) ** 2

    def _after_step(self, args, state):
        bits = max(abs(x).bit_length() for row in state.a for x in row)
        self.counters["entry_bits_max"] = max(self.counters["entry_bits_max"], bits)

    def record(self) -> dict:
        hits, misses = self._cache_info()
        return {"import_ns": _import_end - _import_start, "names": self.names,
                "spans": self.spans, "absent": self.absent,
                "counters": dict(self.counters, hilbert_hits=hits, hilbert_misses=misses)}


def _rebind(original, replacement):
    """Point every valsweep module attribute that holds original at replacement."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "valsweep" or mod_name.startswith("valsweep."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump(tracer.record(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
