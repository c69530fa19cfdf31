import ast
import functools
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import valsweep
from oracles import (arithmetic_step, convergent_parameters, parameter_values, step_labels,
                     value_steps)
from valsweep.errors import CertificationError, QFieldError
from valsweep.qfield import _quotient_stream, tau_from_a
from valsweep.toric import det_int
from valsweep.transform import (TransformState, _along, _shear, branch_runs, branch_steps,
                                check_walk, run_sequence)
from valsweep.valuation import ValuationError, ValueElement
from walk_faults import turned

TAU7 = tau_from_a(7)


def ve(i, j, n, tau=TAU7):
    return ValueElement.make(i, j, n, tau)


def chart_state_q11():
    # parameters of the degree-11 chart: values ((9-tau)/11, (2 tau-7)/11)
    return TransformState(((7, 9), (2, 1)), (ve(9, -1, 11), ve(-7, 2, 11)))


def identity_state(tau=TAU7):
    return TransformState(((1, 0), (0, 1)),
                          (ValueElement.make(0, 1, 1, tau),
                           ValueElement.make(1, 0, 1, tau)))


class TestQuadraticStep:
    def test_chart_step(self):
        state = run_sequence(chart_state_q11(), 1)[-1]
        assert state.a == ((16, 9), (3, 1))
        assert state.param_values == (ve(9, -1, 11), ve(-16, 3, 11))
        assert det_int(state.a) == -11
        assert state.param_values[1].sign() > 0

    def test_identity_first_larger(self):
        # tau > 1, so the first value drops by the second's: tau - 1
        state = run_sequence(identity_state(), 1)[-1]
        assert state.a == ((1, 1), (0, 1))
        assert state.param_values == (ve(-1, 1, 1), ve(1, 0, 1))

    def test_branch_flip_after_seven_steps(self):
        states = run_sequence(chart_state_q11(), 8)
        # the value each step lowers: the first seven lower one, the eighth the other
        lowered = [[after.param_values[i] != before.param_values[i] for i in (0, 1)]
                   for before, after in zip(states, states[1:])]
        assert lowered[0] in ([True, False], [False, True])
        assert lowered[:7] == [lowered[0]] * 7
        assert states[7].a == ((70, 9), (9, 1))
        assert lowered[7] == lowered[0][::-1]

    def test_values_stay_positive(self):
        for state in run_sequence(chart_state_q11(), 30)[1:]:
            assert all(v.sign() > 0 for v in state.param_values)


class TestStepOracle:
    """run_sequence reads the steps off the partial quotients of the value
    ratio; the oracle decides each step on the values, through ValueElement
    arithmetic.  Run under python -O as well."""

    @pytest.mark.parametrize("initial", [
        chart_state_q11(), identity_state(), identity_state(tau_from_a(1)),
        identity_state(tau_from_a(999979)),
        TransformState(((9, 11), (2, 1)), (ve(11, -1, 13), ve(-9, 2, 13))),
        TransformState(((1, 0), (0, 1)), (ve(3, 1, 6), ve(2, 0, 4))),
        # column 2 is zero and the ratio below 1: the first step adds column 2 into
        # column 1 and leaves A as it was, so only the values tell which one it took;
        # A is singular, which the constructor refuses
        tuple.__new__(TransformState, (((1, 0), (1, 0)), (ve(0, 1, 9), ve(1, 0, 1)))),
    ])
    def test_matches_value_arithmetic(self, initial):
        states = run_sequence(initial, 400)
        assert states == value_steps(initial, 400)
        for state in states:
            for v in state.param_values:
                # the canonical form of ValueElement.make
                assert type(v) is ValueElement and v.n > 0
                assert ValueElement.make(v.i, v.j, v.n, v.tau) == v
            if det_int(state.a):
                assert TransformState(*state) == state

    def test_equal_values_raise_qfield_error(self):
        # rational independence excluded by hand: the value ratio is rational
        state = tuple.__new__(TransformState, (((1, 0), (0, 1)), (ve(1, 1, 2), ve(2, 2, 4))))
        with pytest.raises(QFieldError, match="continued fractions require an irrational input"):
            run_sequence(state, 1)

    def test_mismatched_tau_rejected(self):
        with pytest.raises(ValuationError, match="mismatched ambient tau"):
            TransformState(((1, 0), (0, 1)), (ve(0, 1, 1), ve(1, 0, 1, tau_from_a(3))))


class TestRunSequence:
    def test_det_preserved_q11(self):
        states = run_sequence(chart_state_q11(), 2)
        assert [det_int(s.a) for s in states] == [-11, -11, -11]

    def test_negative_steps_rejected(self):
        with pytest.raises(ValuationError, match="^steps must be nonnegative$"):
            run_sequence(chart_state_q11(), -1)

    def test_zero_steps(self):
        states = run_sequence(chart_state_q11(), 0)
        assert len(states) == 1

    def test_det_preserved_p13(self):
        initial = TransformState(((9, 11), (2, 1)), (ve(11, -1, 13), ve(-9, 2, 13)))
        states = run_sequence(initial, 5)
        assert all(det_int(s.a) == -13 for s in states)

    def test_matrix_reproduces_original_values(self):
        for state in run_sequence(chart_state_q11(), 20):
            (a, b), (c, d) = state.a
            vx, vy = state.param_values
            assert (vx.scale(a) + vy.scale(b), vx.scale(c) + vy.scale(d)) == \
                (ve(0, 1, 1), ve(1, 0, 1))

    def test_rows_nonnegative_nonzero(self):
        for state in run_sequence(chart_state_q11(), 20):
            for row in state.a:
                assert row[0] >= 0 and row[1] >= 0
                assert row != (0, 0)

    def test_branch_tags_encode_partial_quotients(self):
        walk = [((1, 0), (0, 1)), *itertools.islice(branch_steps(((1, 0), (0, 1)), TAU7), 40)]
        # the column each step wrote, against the value that the oracle's step lowered
        tags = [a[0][0] != prev[0][0] or a[1][0] != prev[1][0] for prev, a in zip(walk, walk[1:])]
        assert tags == [label == "DivideFirstIntoSecond"
                        for label in step_labels(value_steps(identity_state(), 40))[1:]]
        runs = [len(list(run)) for _, run in itertools.groupby(tags)]
        expected = list(itertools.islice(_quotient_stream(TAU7), len(runs)))
        # the last run may be cut off mid-quotient by the step budget
        assert runs[:-1] == expected[:len(runs) - 1]
        assert runs[-1] <= expected[len(runs) - 1]


class TestStateValidation:
    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValuationError):
            TransformState(((1, 0), (0, 1)), (ve(-1, 0, 1), ve(0, 1, 1)))

    @pytest.mark.parametrize("a", [((1, -1), (0, 1)), ((1, 0), (-2, 1))])
    def test_negative_entry_rejected(self, a):
        with pytest.raises(ValuationError, match="^exponent matrix must be nonnegative$"):
            TransformState(a, (ve(0, 1, 1), ve(1, 0, 1)))

    def test_zero_row_rejected(self):
        with pytest.raises(ValuationError):
            TransformState(((0, 0), (0, 1)), (ve(0, 1, 1), ve(1, 0, 1)))

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValuationError, match="^exponent matrix is singular$"):
            TransformState(((1, 0), (1, 0)), (ve(0, 1, 9), ve(1, 0, 1)))

    def test_dependent_values_rejected(self):
        with pytest.raises(ValuationError):
            TransformState(((1, 0), (0, 1)), (ve(2, 0, 1), ve(1, 0, 1)))


def run_end(tau, k):
    """A from `branch_runs` at I on tau at the end of run k, after the
    partial quotients a_0, ..., a_k of tau; `branch_steps` reaches it at
    step a_0 + ... + a_k."""
    runs = list(itertools.islice(branch_runs(((1, 0), (0, 1)), tau), k + 1))
    assert [j for j, _, _ in runs] == list(range(k + 1))
    steps = sum(run for _, run, _ in runs)
    assert list(itertools.islice(branch_steps(((1, 0), (0, 1)), tau), steps))[-1] == runs[-1][2]
    return runs[-1][2]


def assert_run_end_matches_oracle(tau, k):
    """At the end of run k the columns of A are (f_k, g_k) and
    (f_{k-1}, g_{k-1}), in either order: the columns of the oracle
    [[g_k, g_{k-1}], [f_k, f_{k-1}]] with their entries swapped."""
    (a, b), (c, d) = run_end(tau, k)
    (g1, g0), (f1, f0) = convergent_parameters(tau, k)
    assert {(a, c), (b, d)} == {(f1, g1), (f0, g0)}, k
    assert det_int(((a, b), (c, d))) in (-1, 1)


class TestConvergentParameters:
    """The oracle `convergent_parameters` against the ends of the runs of
    `branch_runs`."""

    def test_a7_p2(self):
        m = convergent_parameters(TAU7, 2)
        assert m == ((8, 1), (63, 8))
        assert det_int(m) == 1
        assert run_end(TAU7, 2) == ((8, 63), (1, 8))  # the transpose of m
        assert_run_end_matches_oracle(TAU7, 2)

    def test_golden_p1(self):
        m = convergent_parameters(tau_from_a(1), 1)
        assert m == ((1, 1), (2, 1))
        assert det_int(m) == -1
        assert_run_end_matches_oracle(tau_from_a(1), 1)

    @pytest.mark.parametrize("a", [1, 7, 13])
    @pytest.mark.parametrize("p", range(1, 11))
    def test_positivity_certified(self, a, p):
        # construction raises if either derived parameter value is nonpositive
        m = convergent_parameters(tau_from_a(a), p)
        assert det_int(m) in (-1, 1)
        assert_run_end_matches_oracle(tau_from_a(a), p)

    def test_p_zero_rejected(self):
        with pytest.raises(ValuationError):
            convergent_parameters(TAU7, 0)


def shear(matrix, first):
    """matrix times [[1,0],[1,1]] (column 2 added into column 1) if first,
    else times [[1,1],[0,1]] (column 1 into column 2)."""
    (a, b), (c, d) = matrix
    return ((a + b, b), (c + d, d)) if first else ((a, a + b), (c, c + d))


tau_of = functools.lru_cache(maxsize=None)(tau_from_a)
START = st.tuples(*[st.integers(0, 9)] * 4).filter(lambda e: e[0] * e[3] != e[1] * e[2])


class TestAlong:
    """The sign test of the walks: both current parameters have positive value,
    sign(det A) adj(A) (tau, 1) (`oracles.parameter_values`, by sympy).  A shear
    keeps values of opposite signs opposite, so along any chain the test holds
    on a prefix and never after it fails."""

    @given(st.integers(1, 10**6), START, st.lists(st.booleans(), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_holds_on_a_prefix_and_agrees_with_the_oracle(self, a, entries, ops):
        tau = tau_of(a)
        chain = [(entries[:2], entries[2:])]
        for first in ops:
            chain.append(shear(chain[-1], first))
        holds = [_along(matrix, tau) for matrix in chain]
        cut = holds.index(False) if False in holds else len(holds)
        assert holds == [True] * cut + [False] * (len(holds) - cut)
        # sympy at both ends and on both sides of the cut
        for k in {0, cut - 1, cut, len(chain) - 1} & set(range(len(chain))):
            assert holds[k] == all(v.is_positive for v in parameter_values(chain[k], tau)), k

    @pytest.mark.parametrize("a", [1, 7, 999979])
    def test_the_walk_along_tau_holds_and_a_wrong_turn_fails(self, a):
        tau = tau_from_a(a)
        walk = list(itertools.islice(branch_steps(((1, 0), (0, 1)), tau), 300))
        assert all(_along(matrix, tau) for matrix in walk)
        for step in (0, 1, 5, 299):
            prev = walk[step - 1] if step else ((1, 0), (0, 1))
            wrong = shear(prev, walk[step][0][0] == prev[0][0])  # the other column
            assert not _along(wrong, tau), step
            assert not all(v.is_positive for v in parameter_values(wrong, tau)), step


MATRIX = st.tuples(*[st.tuples(st.integers(0, 9), st.integers(0, 9))] * 2)


class TestShear:
    """`_shear`, the readers' one statement of a step: `times` steps of run k
    are `times` single steps, keep det, and a single step is the one that the
    values decide (`oracles.arithmetic_step`) for a run of k's parity."""

    @given(MATRIX, st.integers(0, 3), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_times_steps_are_single_steps(self, matrix, k, times):
        single = matrix
        for _ in range(times):
            single = _shear(single, k)
        assert _shear(matrix, k, times) == single

    @given(MATRIX, st.integers(0, 3), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_keeps_det(self, matrix, k, times):
        assert det_int(_shear(matrix, k, times)) == det_int(matrix)

    @given(MATRIX, st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_one_step_is_the_value_decided_step(self, matrix, k):
        # the first parameter's value tau > 1 is divided by the second's on an
        # even run (column 2 written), and the other way on an odd one
        values = (ve(0, 1, 1), ve(1, 0, 1)) if k % 2 == 0 else (ve(1, 0, 1), ve(0, 1, 1))
        a, _ = arithmetic_step((matrix, values))
        assert a == _shear(matrix, k)


def walked(start, walk, tau):
    """What `check_walk` yields before it stops, and its refusal (None if none)."""
    out = []
    try:
        for step in check_walk(start, walk, tau):
            out.append(step)
    except CertificationError as exc:
        return out, str(exc)
    return out, None


NONSINGULAR = st.tuples(*[st.integers(-9, 9)] * 4).filter(lambda e: e[0] * e[3] != e[1] * e[2])
# a matrix of a chain rewritten: (kind, the rewrite of A given the matrix before it)
REFUSALS = {"entry_plus_1": lambda a, prev, i: _bumped(a, i, 1),
            "entry_minus_1": lambda a, prev, i: _bumped(a, i, -1),
            "repeated": lambda a, prev, i: prev,
            "rows_swapped": lambda a, prev, i: (a[1], a[0])}


def _bumped(a, i, delta):
    flat = [*a[0], *a[1]]
    flat[i] += delta
    return tuple(flat[:2]), tuple(flat[2:])


class TestCheckWalk:
    """`check_walk`, the one check of a walk: from a start of det != 0, it
    yields exactly a chain of shears (`shear`, restated here), refuses the
    first matrix that is none, naming its index, and after the last matrix
    tests the sign (`oracles.parameter_values`, by sympy)."""

    @given(st.integers(1, 9), NONSINGULAR, st.lists(st.booleans(), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_a_chain_of_shears_is_yielded_whole(self, a, entries, ops):
        tau, chain = tau_of(a), [(entries[:2], entries[2:])]
        for first in ops:
            chain.append(shear(chain[-1], first))
        out, refusal = walked(chain[0], chain[1:], tau)
        assert out == [(k, first, chain[k]) for k, first in enumerate(ops, 1)]
        along = all(v.is_positive for v in parameter_values(chain[-1], tau))
        assert refusal == (None if along else f"matrix {len(ops)} leaves the valuation")

    @given(st.integers(1, 9), NONSINGULAR, st.lists(st.booleans(), min_size=1, max_size=40),
           st.sampled_from(sorted(REFUSALS)), st.integers(0, 3), st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_rewritten_matrix_is_refused_at_its_index(self, a, entries, ops, kind, entry, data):
        chain = [(entries[:2], entries[2:])]
        for first in ops:
            chain.append(shear(chain[-1], first))
        at = data.draw(st.integers(1, len(ops)), label="at")
        chain[at] = REFUSALS[kind](chain[at], chain[at - 1], entry)
        out, refusal = walked(chain[0], chain[1:], tau_of(a))
        assert out == [(k, first, chain[k]) for k, first in enumerate(ops[:at - 1], 1)]
        assert refusal == f"matrix {at} is not one step of matrix {at - 1}"

    @given(st.integers(1, 10**6), st.integers(1, 60), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_wrong_turn_fails_only_the_sign_test(self, a, steps, data):
        tau, start = tau_of(a), ((1, 0), (0, 1))
        turn = data.draw(st.integers(0, steps - 1), label="turn")
        walk = list(itertools.islice(turned(branch_steps, {turn})(start, tau), steps))
        out, refusal = walked(start, walk, tau)
        assert [m for _, _, m in out] == walk
        assert refusal == f"matrix {steps} leaves the valuation"
        assert walked(start, walk[:turn], tau) == (out[:turn], None)


SRC = Path(valsweep.__file__).parent


def walk_rule_uses(names=("_along", "_shear")) -> set[tuple[str, str, str]]:
    """(module, function, name) for each use of one of `names`, by default `_along`
    and `_shear`, in src/, the function being the qualified name of the innermost
    def around it."""
    found = set()

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."), module)
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in names:
                found.add((module, scope or "<module>", name))
            visit(child, scope, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "", path.stem)
    return found


def test_only_check_walk_applies_the_walk_rules():
    # `convergents` keeps its own check of each run, a shear of a_k steps, and
    # its step into the next run; every sign test and every other step check of
    # a walk is `check_walk`'s, so a new reader cannot state its own
    assert walk_rule_uses() == {("transform", "check_walk", "_along"),
                                ("transform", "check_walk", "_shear"),
                                ("cli", "cmd_convergents", "_shear")}


def test_only_quadext_sign_signs_a_field_element():
    # `ValueElement.sign` and the walk's direction test `_along` both ask `QuadExt.sign`
    # for the sign of i + j*tau, so no other function unpacks tau for a sign
    assert walk_rule_uses(("sign_of",)) == {("qfield", "QuadExt.sign", "sign_of")}
    importers = {path.stem for path in SRC.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.ImportFrom) and "sign_of" in {a.name for a in node.names}}
    assert importers == set()


REPORT_NAMES = {"DivideSecondIntoFirst", "DivideFirstIntoSecond", "Regular", "Singular"}


def test_only_the_cli_names_what_the_report_prints():
    # a walk is its matrices and a verdict its flag: the names that a report prints
    # for a step and a ring below, bare or as JSON, are string constants of cli.py alone
    named = {(path.stem, node.value.strip('"')) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.strip('"') in REPORT_NAMES}
    assert named == {("cli", name) for name in REPORT_NAMES}
