"""Production reach (tests/reach.py): the corpus runs every src statement
that is not a certificate or allowed, and the line-to-statement map."""

import importlib.util

import pytest

import reach

SYNTHETIC = '''\
"""A module docstring, never counted."""

LIMIT = 3


def call(x):
    """A docstring, never counted."""
    total = sum(
        [x,
         x + 1],
    )
    return total


def guarded(x):
    try:
        y = 10 // x
    except ZeroDivisionError:
        y = 0
    finally:
        x += 1
    return y


def gen(n):
    for k in range(n):
        if k > LIMIT:
            return
        yield k


def gen_never():
    raise CertificationError("never")
'''


def test_corpus_runs_every_statement_not_allowed():
    assert reach.check() == []


def test_problems_name_unallowed_statements_and_stale_entries():
    missed = [("synthetic.py", st) for st in reach.statements("synthetic", SYNTHETIC)
              if st.line in (19, 28, 33)]
    # the certificate needs no entry
    assert reach.problems(missed, {}) == ["synthetic.py:19 guarded: y = 0",
                                          "synthetic.py:28 gen: return"]
    # an entry names a statement by the start of its text, or a whole
    # function, whose name is not a prefix of another's
    allowed = {"synthetic:guarded: y =": reach.GUARD, "synthetic:gen": reach.BENCH,
               "synthetic:gen_": reach.BENCH, "synthetic:guarded: return": reach.GUARD,
               "synthetic:gen_never": "no reason"}
    assert reach.problems(missed, allowed) == [
        "stale entry 'synthetic:gen_': it names no unrun statement",
        "stale entry 'synthetic:guarded: return': it names no unrun statement",
        "entry 'synthetic:gen_never': 'no reason' is none of REASONS"]


def test_statements_sharing_a_line_are_refused():
    for source in ("def f():\n    x = 1; y = 2\n", "def f(x):\n    if x: return 1\n"):
        with pytest.raises(ValueError, match="^m:2 shares a line with another statement$"):
            reach.statements("m", source)


def test_line_events_map_to_statements(tmp_path):
    # line events differ between interpreter versions (the lines of a
    # multi-line call, an except clause, a generator's resumption), so a
    # difference shows here and not as a false "unrun" in check
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    stmts = reach.statements("synthetic", SYNTHETIC)
    assert [(st.qualname, st.line, st.end, st.text) for st in stmts] == [
        ("call", 8, 11, "total = sum("), ("call", 12, 12, "return total"),
        ("guarded", 17, 17, "y = 10 // x"), ("guarded", 19, 19, "y = 0"),
        ("guarded", 21, 21, "x += 1"), ("guarded", 22, 22, "return y"),
        ("gen", 28, 28, "return"), ("gen", 29, 29, "yield k"),
        ("gen_never", 33, 33, 'raise CertificationError("never")')]
    seen = reach.trace(lambda: (module.call(1), module.guarded(1), list(module.gen(2))),
                       [module.__file__])
    unrun = reach.unrun(stmts, seen[module.__file__])
    assert [(st.qualname, st.text, st.certificate) for st in unrun] == [
        ("guarded", "y = 0", False), ("gen", "return", False),
        ("gen_never", 'raise CertificationError("never")', True)]
