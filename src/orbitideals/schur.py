"""Dimension bookkeeping for the layers of the minor-sum filtration, and
the choice of layer representatives by their prefix pairs.

For fixed minor size p, the spans of the prefixed minor sums form an
increasing filtration in the prefix depth i, stabilizing at depth
min(p, n-p).  In characteristic 0 the space at depth i decomposes into
irreducible conjugation-equivariant layers, one per depth j <= i, and the
partial sums of the layer dimensions are forced to C(n, m)^2.  That pins
the j-th layer dimension to C(n, j)^2 - C(n, j-1)^2; the closed form is
cross-checked against exact rank computations rather than trusted
(see family_rank and the test suite).

The representatives need no polynomial.  Let i <= min(p, n-p) and let
phi_p send the i x i minor (P|Q) to the prefixed sum sum_J (P,J|Q,J) of
size p.  For a depth i' <= i, phi_p maps the depth-i' sum of (P',Q') at
size i to C(p-i', i-i') times the depth-i' sum of (P',Q') at size p: each
tail L of size p-i' splits into (K, J) in C(p-i', i-i') ways, and the row
and column tails are permuted alike, so the signs cancel.  So phi_p maps
V(i,i) onto V(i,p), and since dim V(i,p) = C(n,i)^2 = dim V(i,i) it is an
isomorphism that sends each family onto nonzero multiples of the same
family at size p.  Linear dependencies among prefixed sums therefore do
not depend on p, and `layer_tags` makes the greedy choice at size i, where
a depth-i' sum is a vector of signs over the C(n,i)^2 minors (R|C): the
signs of its terms, read from `minors.signed_minors`, the one spelling of
a prefixed sum that its expansion and its Jordan count read too.

That argument rests on the closed form dim V(i,p) = C(n,i)^2, which is the
trust boundary of the selection: `family_rank` checks it by expansion and
elimination, and the tests compare `layer_basis` with the expanded greedy
choice.

Depth 0 is a layer like the others: its one tag is ((), ()), whose sum at
size p is the invariant t_p, so a generator list is a walk over layers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .linalg import TriangularBasis
from .minors import prefix_pairs, prefixed_minor_sum, signed_minors
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
def layer_tags(n: int, i: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The prefix pairs (P, Q), |P| = |Q| = i, of the depth-i layer
    representatives, for every minor size p with i <= min(p, n-p).

    Computed at size i with no polynomial: the depth-(i-1) sum of (P', Q')
    is the vector of the signs of its terms `signed_minors(n, P', Q', i)`
    over the minors (R|C), each column keyed by the lex index of (R, C).
    After all of them are inserted, the unit vectors (P|Q) that raise the
    rank, in `prefix_pairs` order, are kept (see the module docstring
    for why the choice holds at every such p).  Depth 0 has an empty
    depth -1 family and keeps its one tag ((), ()), the invariant t_p.
    Past depth n // 2 the result is empty.
    """
    if not (0 <= i <= n):
        raise ValueError(f"depth must lie in 0..{n}")
    index = {s: k for k, s in enumerate(itertools.combinations(range(1, n + 1), i))}
    width = len(index)
    basis = TriangularBasis()
    for P, Q in prefix_pairs(n, i - 1) if i else ():
        basis.insert({index[rows] * width + index[cols]: sign for rows, cols, sign in signed_minors(n, P, Q, i)})
    # once the basis spans all C(n,i)^2 minors, nothing raises the rank
    return tuple(
        (P, Q)
        for P, Q in prefix_pairs(n, i)
        if basis.rank < width * width and basis.insert({index[P] * width + index[Q]: 1})
    )


@lru_cache(maxsize=None)
def layer_basis(n: int, i: int, p: int) -> tuple[Polynomial, ...]:
    """Representatives of the depth-i layer inside the depth-i span.

    The prefixed sums of size p of the pairs `layer_tags(n, i)`: they extend
    any basis of the depth-(i-1) span to one of the depth-i span, and there
    are layer_dimension(n, i) of them.  They are the members the expanded
    greedy choice keeps, because the size-p families are isomorphic images
    of the size-i ones (module docstring); this rests on
    dim V(i,p) = C(n,i)^2, which `family_rank` and the tests cross-check.
    These representatives generate the same ideal contribution as the
    canonical layer, which is all the generator constructions need.  At
    depth 0 the one member is the invariant t_p.  Out of the nonzero range
    (i < 0 or i > min(p, n-p)) the layer is zero and the result is empty.
    """
    if not (1 <= p <= n):
        raise ValueError(f"minor size must lie in 1..{n}")
    if not (0 <= i <= min(p, n - p)):
        return ()
    kept = tuple(prefixed_minor_sum(n, P, Q, p) for P, Q in layer_tags(n, i))
    expected = layer_dimension(n, i)
    if len(kept) != expected:
        raise RuntimeError(
            f"layer ({i},{p}) at n={n}: rank step {len(kept)} != {expected}"
        )
    return kept
