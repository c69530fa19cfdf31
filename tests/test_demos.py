"""Each walkthrough in demos/, and each python session of README.md, runs to
completion against the current API."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import valsweep

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(valsweep.__file__).resolve().parents[1]


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def readme_sessions() -> list[tuple[int, str]]:
    """(line number of the first code line, code) of each python block of README.md."""
    text = (ROOT / "README.md").read_text()
    return [(text.count("\n", 0, block.start(1)) + 1, block.group(1))
            for block in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)]


def checked(code: str) -> str:
    """The code with each one-line bare expression that ends in `# <literal>`
    turned into a check that its value equals the literal; line numbers stay."""
    lines = code.splitlines()
    for node in ast.parse(code).body:
        line = lines[node.lineno - 1]
        comment = line[node.end_col_offset:].strip()
        if not (isinstance(node, ast.Expr) and node.end_lineno == node.lineno
                and comment[:1] == "#"):
            continue
        literal = comment[1:].strip()
        try:
            ast.literal_eval(literal)
        except (ValueError, SyntaxError):
            continue
        expr = line[node.col_offset:node.end_col_offset]
        lines[node.lineno - 1] = (f"if (_value := ({expr})) != ({literal}): raise SystemExit("
                                  f"f'{{_value!r}} != ' + {literal!r})")
    return "\n".join(lines) + "\n"


SESSIONS = readme_sessions()


def test_readme_session_checks_its_values():
    assert SESSIONS
    assert any(checked(code) != code for _, code in SESSIONS)


@pytest.mark.parametrize("line, code", SESSIONS, ids=[f"block{i}" for i in range(len(SESSIONS))])
def test_readme_session_runs(line, code):
    proc = run_python("-c", checked(code))
    assert proc.returncode == 0, f"README.md block at line {line}:\n{proc.stderr}"
