"""The integer `lower_central_series` against its `Fraction` reference.

The reference spans each term of the series by psi(x, e_j), evaluated with
`StructureTensor.apply` on the `rref` basis x of the term before, all in
`Fraction`.  The library builds the same spanning vectors as {k: int}
rows off the integer form and takes ranks with `exact._Echelon`.  On
generated tensors (skew and not, Lie algebras moved to random bases, among
them a nilpotent one of class 3, and a non-Lie tensor) the dimensions must
agree.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given

from liepencil.analysis import lower_central_series
from liepencil.exact import rref

from helpers import unit_vector
from test_tensor_oracle import tensors

# the example budget is the "liepencil" profile in conftest.py


def reference_series(tensor):
    n = tensor.dim
    dims = [n]
    basis = [unit_vector(n, i) for i in range(n)]
    current = basis
    while True:
        red, pivots = rref([tensor.apply(x, e) for x in current for e in basis])
        r = len(pivots)
        dims.append(r)
        if r == 0 or r == dims[-2]:
            break
        current = red[:r]
    return dims


@given(tensors())
def test_lower_central_series_matches_reference(tensor):
    assert lower_central_series(tensor) == reference_series(tensor)
