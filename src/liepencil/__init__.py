"""Exact engine for derived brackets, bracket pencils, and torsion.

The package works with finite-dimensional algebras given by rational
structure constants.  Everything is exact: ranks and kernels run over the
rationals, polynomial arithmetic is sparse with Fraction coefficients, and
identities that guard a returned result raise when they fail (also under
`python -O`); cross-checks between independent computations live in the
tests.
"""

__version__ = "0.1.0"
