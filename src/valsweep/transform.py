"""Quadratic-transform sequences along a monomial valuation.

A state tracks the 2x2 exponent matrix A whose rows express the original
parameters u, v in the current parameters, together with the exact values
of the current parameters.  Each step divides the larger-value parameter
by the smaller one; on A this is an elementary column operation, so
det(A) is constant along the sequence.
"""

from __future__ import annotations

import enum
from itertools import islice
from typing import Iterator, NamedTuple

from .qfield import QuadExt, _quotient_stream
from .valuation import ValueElement, ValuationError, _check_parameter_values


class Branch(enum.Enum):
    # second parameter has the larger value and is divided by the first
    DIVIDE_FIRST_INTO_SECOND = "DivideFirstIntoSecond"
    # first parameter has the larger value and is divided by the second
    DIVIDE_SECOND_INTO_FIRST = "DivideSecondIntoFirst"


Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def det2(a: Matrix2) -> int:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


class _TransformFields(NamedTuple):
    a: Matrix2
    param_values: tuple[ValueElement, ValueElement]
    branch: Branch | None = None  # the step that produced this state


class TransformState(_TransformFields):
    """A validated transform state.

    The constructor checks outside input in full: both values over the
    same tau, positive, rationally independent, and A nonnegative with no
    zero row.
    `run_sequence` builds the successors unchecked: each step subtracts the
    smaller value from the larger, and it is unimodular on A and the values.
    """

    __slots__ = ()

    def __new__(cls, a, param_values, branch=None) -> "TransformState":
        vx, vy = param_values
        _check_parameter_values(vx, vy)
        for row in a:
            if row[0] < 0 or row[1] < 0:
                raise ValuationError("exponent matrix must be nonnegative")
            if row == (0, 0):
                raise ValuationError("exponent matrix has a zero row")
        return super().__new__(cls, a, param_values, branch)


def run_sequence(initial: TransformState, steps: int) -> list[TransformState]:
    """The transform sequence [initial, after 1 step, ...]: the branches and
    matrices of `branch_steps` on the ratio of the values, and the divided
    parameter's value less the other's at each step."""
    if steps < 0:
        raise ValuationError("steps must be nonnegative")
    out = [initial]
    vx, vy = initial.param_values
    for branch, a in islice(branch_steps(initial.a, vx.as_quadext() / vy.as_quadext()), steps):
        if branch is Branch.DIVIDE_SECOND_INTO_FIRST:
            vx = vx - vy
        else:
            vy = vy - vx
        out.append(tuple.__new__(TransformState, (a, (vx, vy), branch)))
    return out


def _elementary_successor(prev: Matrix2, matrix: Matrix2) -> bool:
    """Whether matrix = prev*E for E = [[1,1],[0,1]] or [[1,0],[1,1]]: one
    column of prev kept and the other replaced by the sum of both.

    This restates the two column operations without calling
    `branch_steps`, so a broken step cannot certify itself.  E has
    determinant 1, so a successor keeps det(prev).
    """
    (a, b), (c, d) = prev
    (a2, b2), (c2, d2) = matrix
    return ((a2 == a and c2 == c and b2 == a + b and d2 == c + d)
            or (b2 == b and d2 == d and a2 == a + b and c2 == c + d))


def branch_steps(matrix: Matrix2, x: QuadExt) -> Iterator[tuple[Branch, Matrix2]]:
    """(branch, next A) at each step of the transform sequence from A = matrix,
    lazily, for parameter values of ratio x = v(first)/v(second) > 0.  The
    steps run the subtractive Euclidean algorithm on the values, so they come
    in runs of the partial quotients a_k of x: a_0 steps that add column 1
    into column 2, then a_1 that add column 2 into column 1, and so on."""
    (a, b), (c, d) = matrix
    for k, run in enumerate(_quotient_stream(x)):
        for _ in range(run):
            if k % 2 == 0:
                b, d = a + b, c + d
                yield Branch.DIVIDE_SECOND_INTO_FIRST, ((a, b), (c, d))
            else:
                a, c = a + b, c + d
                yield Branch.DIVIDE_FIRST_INTO_SECOND, ((a, b), (c, d))
