import itertools

import pytest

from oracles import convergent_parameters, value_steps
from valsweep.errors import QFieldError
from valsweep.qfield import _quotient_stream, tau_from_a
from valsweep.toric import det_int
from valsweep.transform import Branch, TransformState, branch_steps, run_sequence
from valsweep.valuation import ValuationError, ValueElement

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
        state = run_sequence(identity_state(), 1)[-1]
        assert state.a == ((1, 1), (0, 1))
        assert state.branch is Branch.DIVIDE_SECOND_INTO_FIRST

    def test_branch_flip_after_seven_steps(self):
        states = run_sequence(chart_state_q11(), 8)
        assert states[0].branch is None
        first = states[1].branch
        assert all(state.branch is first for state in states[1:8])
        assert states[7].a == ((70, 9), (9, 1))
        assert states[8].branch is not first

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
    ])
    def test_matches_value_arithmetic(self, initial):
        states = run_sequence(initial, 400)
        assert states == value_steps(initial, 400)
        for state in states:
            for v in state.param_values:
                # the canonical form of ValueElement.make
                assert type(v) is ValueElement and v.n > 0
                assert ValueElement.make(v.i, v.j, v.n, v.tau) == v
            assert TransformState(*state) == state

    def test_equal_values_raise_qfield_error(self):
        # rational independence excluded by hand: the value ratio is rational
        state = tuple.__new__(TransformState, (((1, 0), (0, 1)),
                                               (ve(1, 1, 2), ve(2, 2, 4)), None))
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
        tags = [branch for branch, _ in itertools.islice(branch_steps(((1, 0), (0, 1)), TAU7), 40)]
        assert tags == [branch for _, _, branch in value_steps(identity_state(), 40)[1:]]
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

    def test_dependent_values_rejected(self):
        with pytest.raises(ValuationError):
            TransformState(((1, 0), (0, 1)), (ve(2, 0, 1), ve(1, 0, 1)))


def run_end(tau, k):
    """A from `branch_steps` at I on tau at the end of run k, after the
    partial quotients a_0, ..., a_k of tau."""
    steps = sum(itertools.islice(_quotient_stream(tau), k + 1))
    return list(itertools.islice(branch_steps(((1, 0), (0, 1)), tau), steps))[-1][1]


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
    `branch_steps`."""

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
