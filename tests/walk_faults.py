"""Faults in a walk, for the readers' checks to catch.

A walk states each step by its matrix alone.  The first two faults send a
walk off the valuation while every matrix stays a one-step successor of the
one before, so that only the readers' sign test (`transform._along`) can
catch them:

- `quotient_off` is `transform._quotient_stream` with one partial quotient
  moved by one or more steps, for every ratio or for one;
- `turned` is a `branch_steps` that takes the other column operation at the
  given steps and otherwise the real walk's operation, from wherever it is:
  a wrong turn, and then a chain of successors.

The forges of `STATE_FORGES` rewrite one matrix of a walk, through
`forged_matrix`; `steps_forged` puts one into a `branch_steps` walk (the
sweep's and `transform`'s) and `runs_forged` into the run ends of
`convergents`.  Two forges are no step of the matrix before, which only a
reader's step check (against `transform._shear`) can catch.  The third,
`other_label`, writes the other column: it is a step itself, a wrong turn,
so a walk of single steps is refused at the next matrix, or at its last by
the sign test.
"""

from valsweep import transform

# the forges of one matrix: its column 1 doubled, the matrix of the step or run of
# the other label (the other column written), and the matrix before it repeated
STATE_FORGES = ("column_1_doubled", "other_label", "repeated")


def quotient_off(at, delta, only=None):
    """`transform._quotient_stream` with a_at + delta in place of a_at, for
    every ratio, or only for the ratio `only`."""
    real = transform._quotient_stream

    def stream(x):
        for k, a in enumerate(real(x)):
            yield a + delta if k == at and only in (None, x) else a

    return stream


def _writes_column_1(a, prev):
    """Whether the step from prev to a (both of det != 0) wrote column 1."""
    return a[0][0] != prev[0][0] or a[1][0] != prev[1][0]


def turned(real, turns):
    """`real` (a `branch_steps`) with the other column operation at each step
    index in `turns` (0 for the step to state 1)."""
    def steps(matrix, x):
        (a, b), (c, d) = prev = matrix
        for i, step in enumerate(real(matrix, x)):
            if _writes_column_1(step, prev) != (i in turns):
                a, c = a + b, c + d
            else:
                b, d = b + a, d + c
            yield (a, b), (c, d)
            prev = step

    return steps


def forged_matrix(forge, p, times, a, prev):
    """The matrix of forge `forge` in place of a, for a step or run from prev
    to a that adds `times` times into column 1 (p true) or column 2 (p false)."""
    if forge == "column_1_doubled":
        return (2 * a[0][0], a[0][1]), (2 * a[1][0], a[1][1])
    if forge == "repeated":
        return prev
    (w, x), (y, z) = prev  # other_label: the other column written
    if p:
        return (w, x + times * w), (y, z + times * y)
    return (w + times * x, x), (y + times * z, z)


def steps_forged(real, at, forge):
    """`real` (a `branch_steps`) with the matrix of state `at` (1 for the state
    after the first step) forged by `forged_matrix`; the walk goes on from the
    real A."""
    def steps(matrix, x):
        prev = matrix
        for k, a in enumerate(real(matrix, x), 1):
            yield forged_matrix(forge, _writes_column_1(a, prev), 1, a, prev) if k == at else a
            prev = a

    return steps


def runs_forged(real, at, forge):
    """`real` (a `branch_runs`) with the end of run `at` forged by
    `forged_matrix`; the walk goes on from the real end."""
    def runs(matrix, x):
        prev = matrix
        for k, run, end in real(matrix, x):
            yield k, run, (forged_matrix(forge, k % 2, run, end, prev) if k == at else end)
            prev = end

    return runs
