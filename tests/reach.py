"""Production reach: the src statements that the byte-identity corpus runs.

    PYTHONPATH=src python3 tests/reach.py check

`check` replays every argv of every family of tests/corpus.py in process
under `sys.settrace`, maps each line event in the valsweep package to the
innermost simple statement whose lines hold it, and prints each statement
that no argv runs as `file:line Qual.name: text`.  Docstrings and the
statements of module and class bodies, which run at import, are not
counted.  An unrun statement passes if it is a `raise CertificationError`,
a certificate that correct code never trips, or if an entry of `ALLOWED`
names it with one of `REASONS`.  `check` exits 1 on any other unrun
statement and on each entry that names no unrun statement.

A listed statement is resolved in one of three ways: an argv that reaches
it joins a corpus family (and that family is re-recorded), it leaves src,
or one of `REASONS` holds and an entry names it.  An entry is
`module:Qual.name: text`, with the statement's first line or the start of
it as text, or `module:Qual.name` for every unrun statement of that
function, so edits elsewhere do not shift it.
"""

from __future__ import annotations

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import corpus

ROOT = Path(__file__).resolve().parents[1]

# The reasons an unrun statement may stay in src; each entry gives one.
MESSAGE = "a certificate's fallback or message"
GUARD = "a guard on a public entry's arguments"
PREMISE = "a premise that a certificate relies on, checked where the value is made"
BENCH = "a name that bench/ imports or wraps"
JSON_CONTRACT = "the renderer's JSON contract (TestJsonWriter)"
MAIN = "the __main__ entry, which TestPackage spawns"
STDOUT = "a failed write to stdout, which the in-process replay cannot produce"
REASONS = (MESSAGE, GUARD, PREMISE, BENCH, JSON_CONTRACT, MAIN, STDOUT)

# One entry per unrun statement, or per function that no argv calls.
ALLOWED: dict[str, str] = {
    'cli:main: print(f"error: certificate failed': MESSAGE,
    "cli:main: return EXIT_CERTIFICATE": MESSAGE,
    "qfield:QuadExt.__repr__": MESSAGE,
    "valuation:ValueElement.__repr__": MESSAGE,
    "qfield:_no_order: raise TypeError(": GUARD,
    'valuation:_check_parameter_values: raise ValuationError("mismatched ambient tau")': GUARD,
    'valuation:_check_parameter_values: raise ValuationError("parameter values must': GUARD,
    'valuation:_check_parameter_values: raise ValuationError("parameter values are': GUARD,
    "qfield:_quotient_stream: raise QFieldError(": PREMISE,
    'valuation:ValueElement.make: raise ValuationError("tau must be irrational")': PREMISE,
    "qfield:QuadExt.make": BENCH,
    "qfield:QuadExt._coerce": BENCH,
    "qfield:QuadExt.__mul__": BENCH,
    "transform:TransformState.__new__": BENCH,
    "transform:run_sequence": BENCH,
    "cli:Report.render.slot: raise TypeError(": JSON_CONTRACT,
    "cli:Report.render.slot: return []": JSON_CONTRACT,
    "cli:<module>: raise SystemExit(main())": MAIN,
    "cli:_emit": STDOUT,
}


class Statement(NamedTuple):
    module: str
    qualname: str
    line: int
    end: int
    text: str  # the first source line, stripped
    certificate: bool  # a `raise CertificationError(...)`


def _is_certificate(node: ast.stmt) -> bool:
    exc = getattr(node, "exc", None)
    return (isinstance(node, ast.Raise) and isinstance(exc, ast.Call)
            and isinstance(exc.func, ast.Name) and exc.func.id == "CertificationError")


def _blocks(node: ast.stmt) -> Iterator[list[ast.stmt]]:
    """The statement lists of a compound statement, in source order."""
    yield node.body
    for part in getattr(node, "handlers", []) + getattr(node, "cases", []):
        yield part.body
    yield getattr(node, "orelse", [])
    yield getattr(node, "finalbody", [])


def statements(module: str, source: str) -> list[Statement]:
    """The counted simple statements of a module's source: those inside a
    function, or inside a compound statement of a module or class body,
    docstrings left out.  A statement that shares a line with another
    cannot be told apart by line events, so it raises ValueError."""
    lines = source.splitlines()
    out: list[Statement] = []

    def visit(body: list[ast.stmt], qualname: str, counted: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                function = not isinstance(node, ast.ClassDef)
                docstring = function and ast.get_docstring(node) is not None
                visit(node.body[docstring:], f"{qualname}.{node.name}".lstrip("."), function)
            elif hasattr(node, "body"):
                for block in _blocks(node):
                    visit(block, qualname, True)
            elif counted:
                out.append(Statement(module, qualname or "<module>", node.lineno, node.end_lineno,
                                     lines[node.lineno - 1].strip(), _is_certificate(node)))

    tree = ast.parse(source)
    visit(tree.body, "", False)
    starts = Counter(node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt))
    for st in out:
        if sum(starts[line] for line in range(st.line, st.end + 1)) != 1:
            raise ValueError(f"{module}:{st.line} shares a line with another statement")
    return out


def trace(run: Callable[[], object], files: Iterable[str]) -> dict[str, set[int]]:
    """The lines of each file (as its code objects name it) that run() runs."""
    seen: dict[str, set[int]] = {name: set() for name in files}

    def on_call(frame, event, arg):
        lines = seen.get(frame.f_code.co_filename)
        if lines is None:
            return None
        add = lines.add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def unrun(stmts: Iterable[Statement], run_lines: set[int]) -> list[Statement]:
    """The statements none of whose lines ran."""
    return [st for st in stmts if run_lines.isdisjoint(range(st.line, st.end + 1))]


def _names(entry: str, st: Statement) -> bool:
    scope, _, text = entry.partition(": ")
    module, _, qualname = scope.partition(":")
    return (st.module == module and st.text.startswith(text)
            and (st.qualname + ".").startswith(qualname + "."))


def problems(missed: Iterable[tuple[str, Statement]], allowed: dict[str, str]) -> list[str]:
    """One line per unrun (display path, statement) that is neither a
    certificate nor named by an entry, and per entry that names none or
    gives no reason of `REASONS`."""
    out, used = [], set()
    for path, st in missed:
        names = [entry for entry in allowed if _names(entry, st)]
        used.update(names)
        if not (st.certificate or names):
            out.append(f"{path}:{st.line} {st.qualname}: {st.text}")
    out += [f"stale entry {entry!r}: it names no unrun statement"
            for entry in allowed if entry not in used]
    out += [f"entry {entry!r}: {reason!r} is none of REASONS"
            for entry, reason in allowed.items() if reason not in REASONS]
    return out


def _modules() -> list:
    """Every module of the valsweep package, imported."""
    package = importlib.import_module("valsweep")
    return [importlib.import_module(f"valsweep.{path.stem}".removesuffix(".__init__"))
            for path in sorted(Path(package.__file__).parent.glob("*.py"))]


def replay() -> tuple[dict[str, list[str]], dict[str, set[int]]]:
    """One traced replay of the corpus: each family's `corpus.line`s, and the
    lines of each valsweep module file that they run.  The argv are generated
    before tracing starts: only `main` is traced."""
    families = {name: corpus.argvs(name) for name in corpus.FAMILIES}
    lines: dict[str, list[str]] = {}

    def run() -> None:
        for name, argvs in families.items():
            lines[name] = [corpus.line(argv) for argv in argvs]

    return lines, trace(run, [module.__file__ for module in _modules()])


def check(seen: dict[str, set[int]]) -> list[str]:
    """The problems of the corpus's reach over the valsweep package, from
    the lines that `replay` saw run."""
    missed = []
    for module in _modules():
        path = Path(module.__file__)
        display = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        stmts = statements(path.stem, path.read_text())
        missed += [(display, st) for st in unrun(stmts, seen[module.__file__])]
    return problems(missed, ALLOWED)


def _main(argv: list[str]) -> int:
    if argv != ["check"]:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    found = check(replay()[1])
    for problem in found:
        print(problem)
    print(f"{len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
