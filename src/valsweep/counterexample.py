"""End-to-end construction and verification of the two-branch obstruction.

Builds the (q, p) instance: the quadratic irrational tau, the valuation
with values (tau, 1) on (u, v), its unique extensions to the two degree-q
and degree-p root covers, and the exponent matrices relating (u, v) to
the chart parameters.  Sweeps quadratic transforms along both branches;
`certify_conflict` judges every matrix, so the ring lying below is singular
at every step, and the two branches force local fundamental groups of
orders q and p, which cannot both hold for one ring since q != p.

The singularity certificate is inductive: `build` judges step 0 of each
branch directly, and every later exponent matrix is checked to be its
predecessor times an elementary matrix of determinant 1, which leaves the
ring below unchanged up to isomorphism.  A check that validated input cannot
trip raises `CertificationError`, and a regular ring `Falsified`.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import NamedTuple

from .errors import CertificationError, ConfigError, Falsified
from .qfield import QuadExt, tau_from_a
from .valuation import ValueElement, group_index
from .transform import Matrix2, branch_steps, check_walk
from .toric import RegularityVerdict, below_ring_regularity, det_int, smith_normal_form
from .quotient import ORDER_MAX, DiagonalAction, is_prime, pi1_order


class InstanceConfig(NamedTuple):
    q: int
    p: int
    m: int = 3
    n: int = 3
    steps: int = 25

    def chart_exponents(self) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
        """(a, b, c, d) exponent quadruples for the two charts."""
        return ((self.q - 4, self.q - 2, 2, 1), (self.p - 4, self.p - 2, 2, 1))

    def validate(self) -> None:
        q, p, m, n = self.q, self.p, self.m, self.n
        for name, order in (("q", q), ("p", p)):  # before any trial division
            if order > ORDER_MAX:
                raise ConfigError(f"{name} <= {ORDER_MAX}",
                                  f"{name}={order} exceeds the cyclic-action order cap")
        if not is_prime(q) or q <= 3:
            raise ConfigError("q prime > 3", f"q={q} must be a prime greater than 3")
        if not is_prime(p):
            raise ConfigError("p prime", f"p={p} must be prime")
        if not (5 <= q < p < 2 * q - 4):
            raise ConfigError("5 <= q < p < 2q-4",
                              f"(q, p)=({q}, {p}) violates 5 <= q < p < 2q-4")
        (a1, b1, c1, d1), (a2, b2, c2, d2) = self.chart_exponents()
        m_bound = max(abs(a1 - a2), abs(c1 - c2))
        n_bound = max(abs(b1 - b2), abs(d1 - d2))
        if m <= 0 or m % 2 == 0:
            raise ConfigError("m odd positive", f"m={m} must be odd and positive")
        if n <= 0 or n % 2 == 0:
            raise ConfigError("n odd positive", f"n={n} must be odd and positive")
        if m <= m_bound:
            raise ConfigError("m > max(|a1-a2|, |c1-c2|)",
                              f"m={m} must exceed {m_bound}")
        if n <= n_bound:
            raise ConfigError("n > max(|b1-b2|, |d1-d2|)",
                              f"n={n} must exceed {n_bound}")
        if self.steps < 0:
            raise ConfigError("steps >= 0", "steps must be nonnegative")


class ChartCorrections(NamedTuple):
    """Unit-correction exponents certifying the chart relations.

    In each chart, u and v are monomials in the local parameters times
    units; the units differ from constants by terms whose exponents are
    these corrections, all strictly positive: the charts share c and d, and
    `InstanceConfig.validate` requires m > |a1 - a2| and n > |b1 - b2|.
    """

    chart: str
    u_correction: tuple[int, int]
    v_correction: tuple[int, int]


class BranchData(NamedTuple):
    """One root cover: step-0 exponent matrix, exact chart parameter values,
    and the matrix's Smith-form cyclic action and Hirzebruch-Jung verdict."""

    name: str
    order: int
    matrix: Matrix2
    chart_values: tuple[ValueElement, ValueElement]
    action: DiagonalAction
    verdict: RegularityVerdict


class Instance(NamedTuple):
    config: InstanceConfig
    tau: QuadExt
    epsilon: QuadExt
    branches: tuple[BranchData, BranchData]
    charts: tuple[ChartCorrections, ChartCorrections]


def build(config: InstanceConfig) -> Instance:
    """Validate the configuration once, then construct and certify the instance.

    Computes the chart corrections; certifies 0 < epsilon < 1, positivity of all
    four chart values, and that the value group indices are q and p by the
    linear-system and the Smith-form routes; each branch keeps the cyclic
    action of its Smith form and the regularity verdict of its matrix.
    """
    config.validate()
    q, p, m, n = config.q, config.p, config.m, config.n
    e1, e2 = config.chart_exponents()
    charts = []
    for chart, (own, other) in (("P1", (e1, e2)), ("P2", (e2, e1))):
        ao, bo, co, do = own
        at, bt, ct, dt = other
        u_corr = (at + m - ao, bt + n - bo)
        v_corr = (ct + m - co, dt + n - do)
        charts.append(ChartCorrections(chart, u_corr, v_corr))
    tau = tau_from_a(q - 4)
    val_u = ValueElement.make(0, 1, 1, tau)  # value tau = q - 4 + epsilon > 0
    val_v = ValueElement.make(1, 0, 1, tau)  # value 1; make refuses a rational tau
    epsilon = ValueElement.make(4 - q, 1, 1, tau)
    if not (epsilon.sign() > 0 and (val_v - epsilon).sign() > 0):
        raise CertificationError("epsilon outside (0, 1)")

    branches = []
    for name, order, e in zip(("nu1", "nu2"), (q, p), (e1, e2)):
        # root value (2+tau)/order; chart parameters v/root and root^2/v
        x1 = ValueElement.make(order - 2, -1, order, tau)
        y1 = ValueElement.make(4 - order, 2, order, tau)
        for label, val in (("x", x1), ("y", y1)):
            if val.sign() <= 0:
                raise CertificationError(f"chart value {label}1 not positive on {name}")
        a = (e[:2], e[2:])  # the chart's (a, b, c, d) as rows
        # the defining relations x1 = v/z, y1 = z^2/v at value level
        root = ValueElement.make(2, 1, order, tau)
        # row i of A expresses u resp. v in the chart parameters
        relations = {"x1 + root = v": x1 + root == val_v,
                     "2 root - v = y1": root.scale(2) - val_v == y1,
                     "row 1 of A gives u": x1.scale(a[0][0]) + y1.scale(a[0][1]) == val_u,
                     "row 2 of A gives v": x1.scale(a[1][0]) + y1.scale(a[1][1]) == val_v}
        for relation, holds in relations.items():
            if not holds:
                raise CertificationError(f"chart relation {relation} fails on {name}")
        idx = group_index((val_u, val_v), (x1, y1))
        action = derive_diagonal_action(a)  # a cyclic quotient of order |det A|
        if idx != order or action.order != order:
            raise CertificationError(f"value group index {idx}, Smith quotient order "
                                     f"{action.order}, expected {order} on {name}")
        branches.append(BranchData(name, order, a, (x1, y1), action, below_ring_regularity(a)))

    return Instance(config, tau, epsilon.as_quadext(), tuple(branches), charts)


class StepRecord(NamedTuple):
    branch: str
    step: int
    matrix: Matrix2
    det: int
    regular: bool
    embedding_dim: int


class SweepReport(NamedTuple):
    """Each branch's walk of `instance`, its matrices at steps 0..config.steps,
    nu1 then nu2.  It states no verdict."""

    instance: Instance
    walks: tuple[tuple[Matrix2, ...], ...]


def singularity_sweep(instance: Instance) -> SweepReport:
    """The transform sweep's matrices at steps 0..config.steps of each branch;
    it judges none."""
    steps = instance.config.steps  # checked nonnegative by build
    walks = []
    for branch in instance.branches:
        vx, vy = branch.chart_values  # certified positive by build
        walks.append((branch.matrix, *islice(branch_steps(branch.matrix, vx.ratio(vy)), steps)))
    return SweepReport(instance, tuple(walks))


def derive_diagonal_action(matrix: Matrix2) -> DiagonalAction:
    """The cyclic action on the chart parameters induced by the lattice
    quotient Z^2 / A Z^2 of a 2x2 A (prime order only).  The certified Smith form
    U A V = diag(1, d) holds the quotient's generator U^-1 e_2, and
    adj(A) U^-1 e_2 = sign(det A) V e_2: the weights are sign(det A) times
    column 2 of V, mod d."""
    det = det_int(matrix)
    form = smith_normal_form(matrix)
    invariants = form.quotient_invariants()
    if det == 0 or invariants != [abs(det)]:  # the premise of the weight formula
        raise CertificationError(f"quotient invariants {invariants} not cyclic")
    d, sign = abs(det), (1 if det > 0 else -1)
    return DiagonalAction(d, sign * form.v[0][1] % d, sign * form.v[1][1] % d)


def certify_conflict(sweep: SweepReport, corrupt_step: int | None = None
                     ) -> tuple[tuple[StepRecord, ...], dict[str, int]]:
    """The judged records of a finished sweep and the certified fundamental-group
    orders {"nu1": q, "nu2": p}.

    Each branch's pi1 order, by the Smith form (action) and by Hirzebruch-Jung
    (verdict: 1 if Regular, else |det|), must be its prime, and q != p: no single
    normal local ring lies below both.  The sweep must hold two walks of
    config.steps + 1 matrices.  Step 0 must be the branch matrix, which carries the verdict
    `build` took of it.  `transform.check_walk` accepts every later matrix only as prev*E
    (`_shear`), and it carries the previous verdict: E = [[1,1],[0,1]] or [[1,0],[1,1]] has
    determinant 1, so det is unchanged; each row r goes to r*E with the same content, so the
    primitive determinant is unchanged; and the dual cone of the new rows is the image of the
    old one under the lattice automorphism E^-1, so its Hilbert basis has the same size.  Any
    other matrix fails the certificate, as does a walk that leaves the valuation.  A branch
    verdict is Singular, since its order is the branch's prime, so only the probe of the
    falsification channel can be Regular: after every record is checked, nu1's record at
    `corrupt_step` (0..config.steps) becomes the identity, judged by `below_ring_regularity`,
    and a Regular one raises `Falsified`."""
    instance = sweep.instance
    steps = instance.config.steps
    if corrupt_step is not None and not 0 <= corrupt_step <= steps:
        raise ConfigError("0 <= corrupt-step <= steps", f"--corrupt-step {corrupt_step} "
                          f"is outside the swept steps 0..{steps}")
    span = steps + 1
    if len(sweep.walks) != 2 or any(len(walk) != span for walk in sweep.walks):
        raise CertificationError(f"sweep walks hold {[len(walk) for walk in sweep.walks]} "
                                 f"matrices, expected two walks of {span}")
    orders, records = {}, []
    for branch in instance.branches:
        smith = pi1_order(branch.action)
        hj = 1 if branch.verdict.regular else abs(branch.verdict.det)
        if not smith == hj == branch.order:
            raise CertificationError(f"branch {branch.name}: pi1 order {smith} by the Smith "
                                     f"form, {hj} by Hirzebruch-Jung, expected {branch.order}")
        orders[branch.name] = smith
    if orders["nu1"] == orders["nu2"]:
        raise CertificationError("branch orders coincide; no obstruction")
    for branch, (start, *walk) in zip(instance.branches, sweep.walks):
        name, (regular, dim, det) = branch.name, branch.verdict  # Singular, of prime order
        try:
            if start != branch.matrix:
                raise CertificationError("matrix 0 is not the branch matrix")
            for step, _, matrix in chain([(0, 0, start)], check_walk(start, walk, instance.tau)):
                records.append(tuple.__new__(StepRecord, (name, step, matrix, det, regular, dim)))
        except CertificationError as exc:
            raise CertificationError(f"{name} walk: {exc}") from None
    if corrupt_step is not None:  # nu1's record there, once checked, becomes the probe
        matrix = ((1, 0), (0, 1))
        regular, dim, det = below_ring_regularity(matrix)
        records[corrupt_step] = StepRecord("nu1", corrupt_step, matrix, det, regular, dim)
        if regular:
            raise Falsified(f"branch nu1 step {corrupt_step}: ring below is regular",
                            tuple(records))
    return tuple(records), orders
