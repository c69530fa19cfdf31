"""Exact-arithmetic verification of monomial-valuation transform sweeps,
lattice quotients, toric semigroups and cyclic invariant rings."""

from .qfield import Convergent, QuadExt, convergents, sign, tau_from_a
from .valuation import MonomialValuation, ValueElement, group_index
from .transform import (Branch, TransformState, convergent_parameters,
                        quadratic_step, run_sequence)
from .toric import (SemigroupBasis, SmithForm, adjugate, adjugate_power_identity,
                    below_ring_regularity, dual_cone_2d, hilbert_basis_2d,
                    smith_normal_form)
from .quotient import (DiagonalAction, invariant_generators, pi1_order,
                       ramification_minors)
from .counterexample import (InstanceConfig, build, certify_conflict,
                             contradiction_report, singularity_sweep,
                             validate_surface)

__version__ = "0.1.0"
