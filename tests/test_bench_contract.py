"""What the benchmark under bench/ uses of valsweep still exists.

The bench files are kept fixed, so that runs before and after a change
measure the same thing; a change to src that removes a name they use
breaks the benchmark.  This module finds those names without running the
benchmark: every valsweep import in bench/*.py, including the ones in
the code strings that bench/run.py hands to child interpreters, the
attributes that bench/traced_cli.py reaches with no fallback, and the
layers it wraps, whose metrics read 0 once src removes them.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

from valsweep import cli, qfield, valuation

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _trees(path: Path):
    """The module's syntax tree, and that of each string constant in it
    that parses as Python and names valsweep."""
    tree = ast.parse(path.read_text(), str(path))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "valsweep" in node.value:
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                pass


def valsweep_imports() -> list[tuple[str, str, str | None]]:
    """(bench file, module, name) for each `from valsweep... import name`,
    and (bench file, module, None) for each `import valsweep...`."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        for tree in _trees(path):
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("valsweep"):
                    out += [(path.name, node.module, alias.name) for alias in node.names]
                elif isinstance(node, ast.Import):
                    out += [(path.name, alias.name, None) for alias in node.names
                            if alias.name.startswith("valsweep")]
    return list(dict.fromkeys(out))


IMPORTS = valsweep_imports()


def test_bench_imports_found():
    # series.py and traced_cli.py import from valsweep; run.py imports it in a child
    assert {name for name, _, _ in IMPORTS} == {"run.py", "series.py", "traced_cli.py"}
    assert ("series.py", "valsweep.transform", "run_sequence") in IMPORTS


@pytest.mark.parametrize("bench_file, module, name", IMPORTS,
                         ids=[f"{f}:{m}" + (f".{n}" if n else "") for f, m, n in IMPORTS])
def test_import_resolves(bench_file, module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule, as in `from valsweep import cli`


def test_traced_cli_attributes():
    assert callable(vars(cli.Report)["render"])
    assert callable(cli.main)
    assert type(cli.COMMANDS) is dict and cli.COMMANDS
    assert all(callable(command) for command in cli.COMMANDS.values())
    # traced_cli wraps make through the staticmethod's __func__
    assert isinstance(vars(valuation.ValueElement)["make"], staticmethod)
    # series.py builds its field elements with QuadExt.make
    assert callable(qfield.QuadExt.make)


def traced_layers() -> list[tuple[str, str]]:
    """(owner, attribute) of each entry of the LAYERS list of bench/traced_cli.py,
    the owner as written there (`toric`, `cli.Report`)."""
    tree = ast.parse((BENCH / "traced_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["LAYERS"]:
            return [(ast.unparse(entry.elts[0]), ast.literal_eval(entry.elts[1]))
                    for entry in node.value.elts]
    raise AssertionError("bench/traced_cli.py assigns no LAYERS list")


def test_traced_layers_absent():
    # traced_cli looks each layer up with vars(owner).get(attr), and a missing one
    # is listed as absent with metrics that read 0 until the benchmark drops them
    layers = traced_layers()
    assert len(layers) == 15
    absent = set()
    for owner, attr in layers:
        module, *path = owner.split(".")
        namespace = functools.reduce(getattr, path, importlib.import_module(f"valsweep.{module}"))
        if vars(namespace).get(attr) is None:
            absent.add(f"{owner}.{attr}")
    assert absent == {"toric.semigroup_contains", "transform.quadratic_step",
                      "counterexample.contradiction_report"}
