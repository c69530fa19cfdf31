"""Command-line front end with a canonical machine-readable report.

Each subcommand takes only its own flags, runs the computation and prints
one report on stdout (JSON is the canonical form; text is a projection of
the same payload).  Timing goes to stderr so identical invocations produce
byte-identical stdout.  Exit codes: 0 success, 1 usage or config error or a
stdout that cannot take the report, 2 falsified (a certified sweep record holds
a regular ring below), 3 a failed certificate, a sweep's |det| drift included
(a defect in valsweep, not the input).
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import inf, isqrt
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Sequence

# Only the errors at module level: each command imports the layers it runs,
# so a process compiles no module its subcommand does not use.
from .errors import (CertificationError, ConfigError, Falsified, QFieldError, QuotientError,
                     ToricError, ValuationError)

SCHEMA_VERSION = "1.0"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2
EXIT_CERTIFICATE = 3


class UsageError(ValueError):
    pass


# Matrix entries grow linearly in the step count, so time and stdout grow
# about quadratically: `counterexample --q 11 --p 13` at the cap takes
# 6.4-6.9 s and 283 MB peak RSS end to end (os.wait4 on a 2-CPU x86-64
# host, CPython 3.11.7, stdout to a file) and prints 205 MB; the command
# takes 0.28-0.32 s of it (timing_ms), and nearly all the rest goes to
# converting the entries to decimal.
STEPS_MAX = 20_000


def _digit_limit_error() -> ConfigError:
    """An integer past the interpreter's int/str conversion limit
    (sys.get_int_max_str_digits) can be neither read nor printed."""
    limit = sys.get_int_max_str_digits()
    return ConfigError(f"integers of at most {limit} digits",
                       "an integer exceeds the interpreter's int/str conversion limit")


def _past_digit_limit(token: str) -> bool:
    """Whether int() refused token for its length alone: a decimal as int()
    reads it, a sign and then digit groups joined by single underscores."""
    return re.fullmatch(r"[+-]?\d+(?:_\d+)*", token.strip()) is not None


def _echo(token: str) -> str:
    """token's repr, or past 40 characters the repr of its first 40 and its length."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}... ({len(token)} characters)"


def _int_flag(flag: str, token: str) -> int:
    """An int flag's value; a token past the digit limit is named, not echoed."""
    try:
        return int(token)
    except ValueError:
        if not _past_digit_limit(token):
            raise UsageError(f"argument {flag}: invalid int value: {_echo(token)}") from None
        limit = _digit_limit_error()
    raise UsageError(f"argument {flag}: violated constraint [{limit.constraint}]: {limit}")


# Stand-ins for the values in a record skeleton: an int, and a text value
# that a row holds already JSON-encoded.
_INT, _TEXT = "\0d", "\0s"
_PAIR = [_INT, _INT]
# Stand-in for a nonempty record list: the payload renders with one in each
# list's place, and the list's rows are spliced in where it renders.
_SLOT = "\0r"

# Rows are rendered and joined per block, so the report is held as a few
# large blocks and no join copies more than one block.
_BLOCK_ROWS = 512


class Records:
    """A list of records of one shape, rendered from one `%` template.

    `skeleton` is one record with `_INT` and `_TEXT` in place of its
    values.  Each row holds a record's values in the order they appear
    in the sorted-key rendering of the skeleton.  (Not a NamedTuple,
    whose class creation every import would pay for.)
    """

    __slots__ = ("skeleton", "rows")

    def __init__(self, skeleton: Any, rows: Sequence[tuple]):
        self.skeleton = skeleton
        self.rows = rows


def _template(text: str) -> str:
    """A rendered skeleton as a `%` template: `%` escaped, stand-ins as %d and %s."""
    return (text.replace("%", "%%").replace('"\\u0000d"', "%d")
            .replace('"\\u0000s"', "%s"))


class Report(NamedTuple):
    command: str
    inputs: dict[str, Any]
    results: dict[str, Any]
    verdict: str

    def payload(self) -> dict[str, Any]:
        return {"schema_version": SCHEMA_VERSION, "command": self.command,
                "inputs": self.inputs, "results": self.results,
                "verdict": self.verdict}

    def render(self, fmt: str) -> list[str]:
        """The report as a few blocks of text, without a final newline:
        json.dumps(payload, sort_keys=True, indent=2), or its text
        projection, with each record list spliced in at its slot.

        The one walk that renders the payload calls `slot` on each record
        list, in the order the lists render.  Every string the program
        renders is NUL-free, so no key or value can contain or forge a
        stand-in (`_INT`, `_TEXT`) or a rendered slot.
        """
        lists: list[Records] = []

        def slot(value: Any) -> Any:
            if type(value) is not Records:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            if not value.rows:
                return []
            lists.append(value)
            return _SLOT

        if fmt == "json":
            text = json.dumps(self.payload(), sort_keys=True, indent=2, default=slot)
            head, *tails = text.split(json.dumps(_SLOT))
        else:
            lines = [f"command: {self.command}", f"verdict: {self.verdict}", "inputs:"]
            _text_lines(self.inputs, "  ", lines, slot)
            lines.append("results:")
            _text_lines(self.results, "  ", lines, slot)
            head, *tails = "\n".join(lines).split(_SLOT)
        out = [head]
        for records, tail in zip(lists, tails):
            line = out[-1][out[-1].rfind("\n"):]  # a newline and the slot's line up to it
            if fmt == "json":  # rows two spaces deeper than the line, in brackets
                newline = re.match(r"\n *", line)[0]
                inner = newline + "  "
                skeleton = json.dumps(records.skeleton, sort_keys=True, indent=2)
                start, sep, end = "[" + inner, "," + inner, newline + "]"
                template = _template(skeleton.replace("\n", inner))
            else:  # one `- ` line per row, as the slot's own
                start, sep, end = "", line, ""
                template = _template(json.dumps(records.skeleton, sort_keys=True))
            out[-1] += start
            rows = records.rows
            for at in range(0, len(rows), _BLOCK_ROWS):
                block = list(map(template.__mod__, rows[at:at + _BLOCK_ROWS]))
                if at + _BLOCK_ROWS < len(rows):
                    block.append("")  # the separator before the next block
                out.append(sep.join(block))
            out.append(end + tail)
        return out


def _text_lines(value: dict[str, Any], indent: str, lines: list[str], slot: Callable) -> None:
    """Append the text lines of a dict: `key: value` for a scalar, nested
    dicts indented, a `- ` line of one-line JSON per list item, and for a
    nonempty `Records` one `- ` line holding its slot."""
    for k in sorted(value):
        v = value[k]
        if isinstance(v, dict):
            lines.append(f"{indent}{k}:")
            _text_lines(v, indent + "  ", lines, slot)
        elif isinstance(v, list):
            lines.append(f"{indent}{k}:")
            lines.extend(f"{indent}  - {json.dumps(x, sort_keys=True)}" for x in v)
        elif type(v) is Records:
            lines.append(f"{indent}{k}:")
            if v.rows:
                lines.append(f"{indent}  - {slot(v)}")
        else:
            lines.append(f"{indent}{k}: {v}")


def parse_entries(text: str) -> list[int]:
    entries = []
    for pos, tok in enumerate(text.split(",")):
        try:
            entries.append(int(tok.strip()))
        except ValueError:
            if _past_digit_limit(tok):
                raise _digit_limit_error() from None
            raise UsageError(f"--matrix: entry {pos} ({_echo(tok)}) is not an integer")
    return entries


def parse_matrix(text: str) -> list[list[int]]:
    entries = parse_entries(text)
    n = isqrt(len(entries))
    if n * n != len(entries) or n == 0:
        raise UsageError(f"--matrix: {len(entries)} entries do not form a square matrix")
    return [entries[i * n:(i + 1) * n] for i in range(n)]


def cmd_tau(args) -> Report:
    from .qfield import _quotient_stream, tau_from_a
    tau = tau_from_a(args.a)
    res = {"tau": tau._asdict(),
           "satisfies": f"t^2 - {args.a}*t - {args.a} = 0",
           "floor": next(_quotient_stream(tau))}
    return Report("tau", {"a": args.a}, res, "Verified")


def cmd_convergents(args) -> Report:
    from .qfield import tau_from_a
    from .transform import _one_shear, branch_runs
    count = 10 if args.steps is None else args.steps
    tau = tau_from_a(args.a)
    if count <= 0:
        raise UsageError("count must be positive")
    # the numerators are the largest entries: generation stops at the first
    # one that no report could print
    limit = sys.get_int_max_str_digits()
    too_long = 10 ** limit if limit else inf
    rows: list[tuple[int, int]] = []
    # from the identity along tau, run k writes (f_k, g_k) into column 2 on even k
    # and column 1 on odd k; each run is one shear, so f_(k-1) g_k - f_k g_(k-1) = +-1
    prev = ((1, 0), (0, 1))
    for k, run, matrix in islice(branch_runs(prev, tau), count):
        (f1, f2), (g1, g2) = matrix
        f, g = (f1, g1) if k % 2 else (f2, g2)
        if f >= too_long:
            raise _digit_limit_error()
        if not _one_shear(prev, k, run, matrix):
            raise CertificationError(f"run {k} is not one shear of the matrix before it")
        rows.append((f, g))
        prev = matrix
    res = {"tau": tau._asdict(), "convergents": Records(_PAIR, rows), "unimodular": True}
    return Report("convergents", {"a": args.a, "count": count}, res, "Verified")


def cmd_value(args) -> Report:
    from .qfield import tau_from_a
    from .valuation import MonomialValuation, ValueElement
    flat = parse_entries(args.matrix)
    if len(flat) % 2:
        raise UsageError(f"--matrix: value needs an even number of entries to form "
                         f"(i, j) support pairs, got {len(flat)}")
    support = [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]
    tau = tau_from_a(args.a)
    val = MonomialValuation(ValueElement.make(0, 1, 1, tau), ValueElement.make(1, 0, 1, tau))
    value = val.value_of(support)
    res = {"support": Records(_PAIR, sorted(support)),
           "value": {"i": value.i, "j": value.j, "n": value.n}}
    return Report("value", {"a": args.a, "matrix": args.matrix}, res, "Verified")


# every state is the identity times shears, so its det is 1
_STATE = {"A": [_PAIR, _PAIR], "branch": _TEXT, "det": 1, "step_index": _INT}


def cmd_transform(args) -> Report:
    from .qfield import tau_from_a
    from .transform import branch_steps
    steps = 10 if args.steps is None else args.steps
    tau = tau_from_a(args.a)
    if steps < 0:
        raise ConfigError("steps >= 0", "steps must be nonnegative")
    # u and v have values tau and 1, so `branch_steps` walks and certifies tau's runs
    rows = [(1, 0, 0, 1, "null", 0)]
    for k, (branch, ((a, b), (c, d))) in enumerate(islice(branch_steps(((1, 0), (0, 1)), tau),
                                                          steps), 1):
        rows.append((a, b, c, d, encode_basestring_ascii(branch.value), k))
    return Report("transform", {"a": args.a, "steps": steps},
                  {"states": Records(_STATE, rows), "det_constant": True}, "Verified")


def cmd_snf(args) -> Report:
    from .toric import smith_normal_form
    a = parse_matrix(args.matrix)
    form = smith_normal_form(a)
    try:
        quotient = " + ".join(f"Z/{d}" for d in form.quotient_invariants()) or "0"
    except ValueError:  # an invariant past sys.get_int_max_str_digits()
        raise _digit_limit_error() from None
    res = {"U": [list(r) for r in form.u], "D": [list(r) for r in form.d],
           "V": [list(r) for r in form.v],
           "diagonal": form.diagonal(), "quotient": quotient}
    return Report("snf", {"matrix": args.matrix}, res, "Verified")


def cmd_hilbert(args) -> Report:
    from .toric import hilbert_basis_2d
    a = parse_matrix(args.matrix)
    if len(a) != 2:
        raise UsageError("--matrix: hilbert expects two 2D rays (4 entries)")
    basis = hilbert_basis_2d(((a[0][0], a[0][1]), (a[1][0], a[1][1])))
    res = {"rays": Records(_PAIR, basis.rays),
           "generators": Records(_PAIR, basis.generators),
           "count": len(basis.generators)}
    return Report("hilbert", {"matrix": args.matrix}, res, "Verified")


def cmd_regularity(args) -> Report:
    from .toric import below_ring_regularity
    a = parse_matrix(args.matrix)
    if len(a) != 2:
        raise UsageError("--matrix: regularity expects a 2x2 matrix")
    verdict = below_ring_regularity(a)
    res = {"regularity": verdict.label, "embedding_dim": verdict.embedding_dim,
           "det": verdict.det}
    return Report("regularity", {"matrix": args.matrix}, res, "Verified")


def cmd_lemma5(args) -> Report:
    from .quotient import DiagonalAction, invariant_generators, pi1_order, ramification_minors
    action = DiagonalAction(args.order, args.a, args.b)
    full, minimal = invariant_generators(action)
    res = {"full_generators": Records(_PAIR, full),
           "minimal_generators": Records(_PAIR, minimal),
           "pi1": pi1_order(action)}
    if action.a != 0 and action.b != 0:
        wit = ramification_minors(action)
        res["ramification_witnesses"] = {
            "coefficient": wit.coefficient,
            "x_power": list(wit.x_witness), "y_power": list(wit.y_witness)}
    return Report("lemma5", {"order": args.order, "a": args.a, "b": args.b},
                  res, "Verified")


_STEP = {"A": [_PAIR, _PAIR], "branch": _TEXT, "det": _INT, "embedding_dim": _INT,
         "regularity": _TEXT, "step": _INT}


def _step_records(records: Sequence[tuple]) -> Records:
    """The judged `counterexample.StepRecord`s as one record list."""
    return Records(_STEP, [(a, b, c, d, encode_basestring_ascii(branch), det, dim,
                            '"Regular"' if regular else '"Singular"', step)
                           for branch, step, ((a, b), (c, d)), det, regular, dim in records])


def cmd_counterexample(args) -> Report:
    from . import counterexample as cx
    given = {k: getattr(args, k) for k in ("m", "n", "steps") if getattr(args, k) is not None}
    instance = cx.build(cx.InstanceConfig(args.q, args.p, **given))
    sweep = cx.singularity_sweep(instance)
    inputs = instance.config._asdict()
    results: dict[str, Any] = {
        "tau": instance.tau._asdict(),
        "epsilon": instance.epsilon._asdict(),
        "charts": [{"chart": c.chart, "u_correction": list(c.u_correction),
                    "v_correction": list(c.v_correction)} for c in instance.charts],
    }
    try:
        records, orders = cx.certify_conflict(sweep, args.corrupt_step)
    except Falsified as exc:
        return Report("counterexample", inputs, {**results, "steps": _step_records(exc.records),
                                                 "falsification": str(exc)}, "Falsified")
    results["steps"] = _step_records(records)
    results["pi1_orders"] = dict(sorted(orders.items()))
    results["conflict"] = orders["nu1"] != orders["nu2"]
    return Report("counterexample", inputs, results, "Verified")


# The flags each subcommand reads, required and then optional, by name: the
# one declaration of a flag.  --format is every subcommand's, and every flag
# takes an int but --matrix, whose entries the commands parse.
SUBCOMMAND_FLAGS = {
    "tau": (("a",), ()),
    "convergents": (("a",), ("steps",)),
    "value": (("a", "matrix"), ()),
    "transform": (("a",), ("steps",)),
    "snf": (("matrix",), ()),
    "hilbert": (("matrix",), ()),
    "regularity": (("matrix",), ()),
    "lemma5": (("order", "a", "b"), ()),
    "counterexample": (("q", "p"), ("m", "n", "steps", "corrupt_step")),
}

# each subcommand runs its cmd_ function
COMMANDS = {command: globals()["cmd_" + command] for command in SUBCOMMAND_FLAGS}

_FLAGS = {name: "--" + name.replace("_", "-") for required, optional in SUBCOMMAND_FLAGS.values()
          for name in required + optional} | {"format": "--format", "help": "--help"}


def _help() -> str:
    """The usage line and each subcommand's flags, optional ones in brackets."""
    return ("usage: valsweep SUBCOMMAND [--FLAG VALUE ...] [--format json|text]\n\n"
            "--matrix takes row-major comma-separated integers, every other flag an integer.\n"
            + "".join(f"  {command:<15}" + "".join([f" {_FLAGS[name]}" for name in required]
                                                   + [f" [{_FLAGS[name]}]" for name in optional])
                      + "\n" for command, (required, optional) in SUBCOMMAND_FLAGS.items()))


def parse_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The subcommand and its flags' values, or None when argv asks for help
    (`-h` is `--help`).  A flag, given once, is `--name=value` or `--name value`,
    the value being the next token unless that starts with `--`; a prefix of
    no other flag's name serves for the name.  The other token is the subcommand."""
    command, values, tokens = None, {}, iter(argv)
    for token in tokens:
        flag, attached, value = ("--help" if token == "-h" else token).partition("=")
        if not flag.startswith("--"):
            if command is not None or token not in COMMANDS:
                raise UsageError(f"unexpected argument {_echo(token)}: give one subcommand of "
                                 f"{', '.join(COMMANDS)}")
            command = token
            continue
        names = ([name for name, spelling in _FLAGS.items() if spelling == flag]
                 or [name for name, spelling in _FLAGS.items() if spelling.startswith(flag)])
        if len(names) != 1:
            raise UsageError(f"unrecognized flag {_echo(flag)}")
        name, = names
        if name == "help":
            return None
        if name in values:
            raise UsageError(f"argument {_FLAGS[name]}: given more than once")
        if not attached and (value := next(tokens, "--")).startswith("--"):
            raise UsageError(f"argument {_FLAGS[name]}: expected one argument")
        if name == "format" and value not in ("json", "text"):
            raise UsageError(f"argument --format: {_echo(value)} is not json or text")
        values[name] = value if name in ("format", "matrix") else _int_flag(_FLAGS[name], value)
    if command is None:
        raise UsageError(f"a subcommand is required, one of {', '.join(COMMANDS)}")
    required, optional = SUBCOMMAND_FLAGS[command]
    missing = [_FLAGS[name] for name in required if name not in values]
    foreign = [_FLAGS[name] for name in values if name not in (*required, *optional, "format")]
    if missing or foreign:  # a missing flag is named before a foreign one
        raise UsageError(f"{missing[0]} is required for this subcommand" if missing
                         else f"{foreign[0]} is not a flag of {command}")
    return SimpleNamespace(**{**dict.fromkeys(_FLAGS), "format": "json", **values}, command=command)


def _emit(texts: list[str], code: int, note: str = "") -> int:
    """Write texts to stdout, then note to stderr, and return code; or return 1 if
    stdout cannot take them, naming any error but a broken pipe, with fd 1 moved to
    os.devnull so the final flush cannot fail again (the `signal` docs' SIGPIPE idiom)."""
    try:
        sys.stdout.writelines(texts)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the report: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    sys.stderr.write(note)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return _emit([_help()], EXIT_OK)
        steps = args.steps  # the step cap, before any work
        if steps is not None and steps > STEPS_MAX:
            raise ConfigError(f"steps <= {STEPS_MAX}", f"--steps {steps} exceeds the step cap")
        start = time.monotonic()
        report = COMMANDS[args.command](args)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        try:
            blocks = report.render(args.format)
        except ValueError:  # an int past sys.get_int_max_str_digits()
            raise _digit_limit_error() from None
    except (UsageError, QFieldError, ValuationError, ToricError, QuotientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"error: violated constraint [{exc.constraint}]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationError as exc:
        print(f"error: certificate failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    blocks.append("\n")
    return _emit(blocks, EXIT_FALSIFIED if report.verdict == "Falsified" else EXIT_OK,
                 f"timing_ms: {elapsed_ms:.1f}\n")


if __name__ == "__main__":
    raise SystemExit(main())
