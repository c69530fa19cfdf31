"""Faults in a walk, for the readers' checks to catch.

The first two send a walk off the valuation while every matrix stays a
one-step successor of the one before, so that only the readers' sign test
(`transform._along`) can catch them:

- `quotient_off` is `transform._quotient_stream` with one partial quotient
  moved by one or more steps, for every ratio or for one;
- `turned` is a `branch_steps` that takes the other column operation at the
  given steps and otherwise the real walk's operation, from wherever it is:
  a wrong turn, and then a chain of successors.

The third prints one state that is not a step of the one before, which only
a reader's step check (against `transform._shear`) can catch:

- `state_forged` is a `branch_steps` with one state rewritten by one of
  `STATE_FORGES`, and the real walk after it;
- `steps_forged` and `runs_forged` apply the same forges to a walk that
  states each step by its matrix alone (the sweep's walks, and the run ends
  of `convergents`), through `forged_matrix`.
"""

from valsweep import transform

SECOND = "DivideSecondIntoFirst"  # the label of a step that adds column 1 into column 2
FIRST = "DivideFirstIntoSecond"  # the label of a step that adds column 2 into column 1


def quotient_off(at, delta, only=None):
    """`transform._quotient_stream` with a_at + delta in place of a_at, for
    every ratio, or only for the ratio `only`."""
    real = transform._quotient_stream

    def stream(x):
        for k, a in enumerate(real(x)):
            yield a + delta if k == at and only in (None, x) else a

    return stream


def turned(real, turns):
    """`real` (a `branch_steps`) with the other column operation at each step
    index in `turns` (0 for the step to state 1)."""
    def steps(matrix, x):
        (a, b), (c, d) = matrix
        for i, (label, _) in enumerate(real(matrix, x)):
            if (label == SECOND) != (i in turns):
                b, d = b + a, d + c
            else:
                a, c = a + b, c + d
            yield label, ((a, b), (c, d))

    return steps


# (label, A, the A before it) -> the (label, A) printed in their place
STATE_FORGES = {
    "column_1_doubled": lambda label, a, prev: (label, ((2 * a[0][0], a[0][1]),
                                                        (2 * a[1][0], a[1][1]))),
    "other_label": lambda label, a, prev: (FIRST if label == SECOND else SECOND, a),
    "repeated": lambda label, a, prev: (label, prev),
}


def state_forged(real, at, forge):
    """`real` (a `branch_steps`) with state `at` (1 for the state after the first
    step) printed as `STATE_FORGES[forge]` of it; the walk goes on from the real A."""
    def steps(matrix, x):
        prev = matrix
        for k, (label, a) in enumerate(real(matrix, x), 1):
            yield STATE_FORGES[forge](label, a, prev) if k == at else (label, a)
            prev = a

    return steps


def forged_matrix(forge, p, times, a, prev):
    """The matrix of `STATE_FORGES[forge]` for a step or run from prev to a that
    adds `times` times into column 1 (p true) or column 2 (p false), in a walk
    that has no labels: `other_label` becomes the matrix that the other label
    names, the other column written instead."""
    if forge != "other_label":
        return STATE_FORGES[forge](None, a, prev)[1]
    (w, x), (y, z) = prev
    if p:
        return (w, x + times * w), (y, z + times * y)
    return (w + times * x, x), (y + times * z, z)


def steps_forged(real, at, forge):
    """`real` (a `branch_steps`) with the matrix of state `at` forged by
    `forged_matrix`; the walk goes on from the real A."""
    def steps(matrix, x):
        prev = matrix
        for k, (label, a) in enumerate(real(matrix, x), 1):
            yield label, (forged_matrix(forge, label == FIRST, 1, a, prev) if k == at else a)
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
