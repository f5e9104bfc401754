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

from functools import lru_cache
from math import comb

from .minors import greedy_extension, minor_sum_basis, minor_sum_family
from .polyring import Polynomial


def layer_dimension(n: int, j: int) -> int:
    """Dimension of the depth-j layer; 1 for j = 0, 0 past depth n // 2."""
    if j < 0:
        raise ValueError("layer index must be non-negative")
    if j == 0:
        return 1
    if j > n // 2:
        return 0
    return comb(n, j) ** 2 - comb(n, j - 1) ** 2


def dimension_table(n: int) -> tuple[int, ...]:
    """Layer dimensions d_0..d_n for matrix size n."""
    return tuple(layer_dimension(n, j) for j in range(n + 1))


@lru_cache(maxsize=None)
def layer_basis(n: int, i: int, p: int) -> tuple[Polynomial, ...]:
    """Representatives of the depth-i layer inside the depth-i span.

    Returns family members extending the basis minor_sum_basis(n, i-1, p)
    of the depth-(i-1) span to one of the depth-i span; there are
    layer_dimension(n, i) of them.  The greedy choice depends only on the
    span already inserted, so they are the members that would extend the
    whole depth-(i-1) family.  These representatives generate the same
    ideal contribution as the canonical layer, which is all the generator
    constructions need.  Out of the nonzero range (i < 1 or
    i > min(p, n-p)) the layer is zero and the result is empty.
    """
    if not (1 <= p <= n):
        raise ValueError(f"minor size must lie in 1..{n}")
    if i < 1 or i > min(p, n - p):
        return ()
    kept = greedy_extension(n, minor_sum_basis(n, i - 1, p), minor_sum_family(n, i, p))
    expected = layer_dimension(n, i)
    if len(kept) != expected:
        raise RuntimeError(
            f"layer ({i},{p}) at n={n}: rank step {len(kept)} != {expected}"
        )
    return kept
