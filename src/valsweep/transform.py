"""Quadratic-transform sequences along a monomial valuation.

A state tracks the 2x2 exponent matrix A whose rows express the original
parameters u, v in the current parameters, together with the exact values
of the current parameters.  Each step divides the larger-value parameter
by the smaller one; on A this is an elementary column operation, so
det(A) is constant along the sequence.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .errors import CertificationError, ValuationError
from .qfield import QuadExt, _quotient_stream

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


class _TransformFields(NamedTuple):
    a: Matrix2
    param_values: tuple  # two ValueElements: the walks load no valuation


class TransformState(_TransformFields):
    """A validated transform state.

    The constructor checks outside input in full: both values over the
    same tau, positive, rationally independent, and A nonnegative and
    nonsingular.
    `run_sequence` builds the successors unchecked: each step subtracts the
    smaller value from the larger, and it is unimodular on A and the values.
    """

    __slots__ = ()

    def __new__(cls, a, param_values) -> "TransformState":
        from .valuation import _check_parameter_values
        vx, vy = param_values
        _check_parameter_values(vx, vy)
        (a11, a12), (a21, a22) = a
        if min(a11, a12, a21, a22) < 0:
            raise ValuationError("exponent matrix must be nonnegative")
        if a11 * a22 == a12 * a21:
            raise ValuationError("exponent matrix is singular")
        return super().__new__(cls, a, param_values)


def run_sequence(initial: TransformState, steps: int) -> list[TransformState]:
    """The transform sequence [initial, after 1 step, ...]: the matrices of
    `branch_steps` on the ratio of the values, and at each step the larger
    value less the smaller, by the sign of their difference."""
    if steps < 0:
        raise ValuationError("steps must be nonnegative")
    out = [initial]
    vx, vy = initial.param_values
    for a in islice(branch_steps(initial.a, vx.ratio(vy)), steps):
        diff = vx - vy
        vx, vy = (diff, vy) if diff.sign() > 0 else (vx, vy - vx)
        out.append(tuple.__new__(TransformState, (a, (vx, vy))))
    return out


def _along(matrix: Matrix2, tau: QuadExt) -> bool:
    """Whether both current parameters, of values sign(det A) adj(A) (tau, 1) when u
    and v have values tau and 1, are positive.  A step keeps values of opposite signs
    opposite, so along a chain of shears this holds on a prefix and never after it."""
    (a, b), (c, d) = matrix
    w = (a * d > b * c) - (a * d < b * c)  # sign(det A)
    return w != 0 and tau.sign(-b, d) == w == tau.sign(a, -c)


def _shear(matrix: Matrix2, k: int, times: int = 1) -> Matrix2:
    """matrix after `times` steps of run k: each adds the kept column into the written one
    (column 2 on even k, 1 on odd k).  The walk readers' step rule; no producer calls it."""
    (a, b), (c, d) = matrix
    if k % 2:  # column 1 is written; a run of 1 adds, since 1 * a copies a long integer
        return ((a + b, b), (c + d, d)) if times == 1 else ((a + times * b, b), (c + times * d, d))
    return ((a, b + a), (c, d + c)) if times == 1 else ((a, b + times * a), (c, d + times * c))


def check_walk(start: Matrix2, walk: Iterable[Matrix2], tau: QuadExt
               ) -> Iterator[tuple[int, bool, Matrix2]]:
    """(k, p, matrix k) for each matrix of `walk`, matrix 0 being `start` (det != 0), once it
    is `_shear(matrix k-1, p)`, p = 1 exactly when column 1 changed; then `_along` of the last.
    The first matrix that fails either raises `CertificationError` naming its index k."""
    k, prev = 0, start
    for k, matrix in enumerate(walk, 1):
        p = matrix[0][0] != prev[0][0] or matrix[1][0] != prev[1][0]
        if matrix != _shear(prev, p):
            raise CertificationError(f"matrix {k} is not one step of matrix {k - 1}")
        yield k, p, matrix
        prev = matrix
    if not _along(prev, tau):
        raise CertificationError(f"matrix {k} leaves the valuation")


def branch_runs(matrix: Matrix2, x: QuadExt) -> Iterator[tuple[int, int, Matrix2]]:
    """(k, a_k, A after run k) for each run of the transform sequence from A = matrix,
    lazily, for parameter values of ratio x = v(first)/v(second) > 0.  The steps run the
    subtractive Euclidean algorithm on the values, so run k takes a_k steps, a_k the k-th
    partial quotient of x: one shear `_shear(A, k, a_k)`, so that `convergents` never
    expands a run, though one can be 10^6 steps long."""
    (a, b), (c, d) = matrix
    for k, run in enumerate(_quotient_stream(x)):
        if k % 2 == 0:  # a run of 1, the commonest, adds: 1 * a copies a long integer
            b, d = (b + a, d + c) if run == 1 else (b + run * a, d + run * c)
        else:
            a, c = (a + b, c + d) if run == 1 else (a + run * b, c + run * d)
        yield k, run, ((a, b), (c, d))


def branch_steps(matrix: Matrix2, x: QuadExt) -> Iterator[Matrix2]:
    """The next A at each step of the transform sequence from A = matrix, lazily,
    for parameter values of ratio x > 0: run k takes a_k steps, and each adds the kept
    column into the written one (column 2 on even k, column 1 on odd k)."""
    (a, b), (c, d) = matrix
    for k, run in enumerate(_quotient_stream(x)):
        for _ in range(run):
            if k % 2:
                a, c = a + b, c + d
            else:
                b, d = b + a, d + c
            yield (a, b), (c, d)
