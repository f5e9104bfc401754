"""Dimension bookkeeping for the layers of the minor-sum filtration.

For fixed minor size p, the spans of the prefixed minor sums form an
increasing filtration in the prefix depth i, stabilizing at depth
min(p, n-p).  In characteristic 0 the space at depth i decomposes into
irreducible conjugation-equivariant layers, one per depth j <= i, and the
partial sums of the layer dimensions are forced to C(n, m)^2.  That pins
the j-th layer dimension to C(n, j)^2 - C(n, j-1)^2; the closed form is
cross-checked against exact rank computations rather than trusted
(see family_rank and the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .linalg import TriangularBasis
from .minors import minor_sum_family
from .polyring import Polynomial, term_key


def layer_dimension(n: int, j: int) -> int:
    """Dimension of the depth-j layer; 1 for j = 0, 0 past depth n // 2."""
    if j < 0:
        raise ValueError("layer index must be non-negative")
    if j == 0:
        return 1
    if j > n // 2:
        return 0
    return comb(n, j) ** 2 - comb(n, j - 1) ** 2


@dataclass(frozen=True)
class DimensionTable:
    """Layer dimensions d_0..d_n for a fixed matrix size."""

    n: int
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.dims[0] != 1:
            raise ValueError("layer 0 must have dimension 1")
        for m in range(self.n // 2 + 1):
            if sum(self.dims[: m + 1]) != comb(self.n, m) ** 2:
                raise ValueError(f"partial sums must telescope to C({self.n},{m})^2")


def dimension_table(n: int) -> DimensionTable:
    return DimensionTable(n, tuple(layer_dimension(n, j) for j in range(n + 1)))


@lru_cache(maxsize=None)
def layer_basis(n: int, i: int, p: int) -> tuple[Polynomial, ...]:
    """Representatives of the depth-i layer inside the depth-i span.

    Returns family members extending a basis of the depth-(i-1) span to one
    of the depth-i span; there are layer_dimension(n, i) of them.  These
    representatives generate the same ideal contribution as the canonical
    layer, which is all the generator constructions need.  Out of the
    nonzero range (i < 1 or i > min(p, n-p)) the layer is zero and the
    result is empty.
    """
    if not (1 <= p <= n):
        raise ValueError(f"minor size must lie in 1..{n}")
    if i < 1 or i > min(p, n - p):
        return ()
    basis = TriangularBasis(lambda mon: term_key(n, mon))
    for _, poly in minor_sum_family(n, i - 1, p):
        if not poly.is_zero():
            basis.insert(poly.terms)
    kept = []
    for _, poly in minor_sum_family(n, i, p):
        if poly.is_zero():
            continue
        if basis.insert(poly.terms):
            kept.append(poly)
    expected = layer_dimension(n, i)
    if len(kept) != expected:
        raise RuntimeError(
            f"layer ({i},{p}) at n={n}: rank step {len(kept)} != {expected}"
        )
    return tuple(kept)
