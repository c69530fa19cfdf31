"""Exact-arithmetic verification of monomial-valuation transform sweeps,
lattice quotients, toric semigroups and cyclic invariant rings.

Importing the package loads no submodule; import the one you need, for
example `valsweep.toric`.
"""

__version__ = "0.1.0"
