"""Dimension bookkeeping for the layers of the minor-sum filtration, and
the choice of layer representatives by their prefix pairs.

For fixed minor size p, the spans of the prefixed minor sums form an
increasing filtration in the prefix depth i, stabilizing at depth
min(p, n-p).  In characteristic 0 the space at depth i decomposes into
irreducible conjugation-equivariant layers, one per depth j <= i, and the
partial sums of the layer dimensions are forced to C(n, m)^2.  That pins
the j-th layer dimension to C(n, j)^2 - C(n, j-1)^2.

The representatives need no polynomial.  Let i <= min(p, n-p) and let
phi_p send the i x i minor (P|Q) to the prefixed sum sum_J (P,J|Q,J) of
size p.  For a depth i' <= i, phi_p maps the depth-i' sum of (P',Q') at
size i to C(p-i', i-i') times the depth-i' sum of (P',Q') at size p: each
tail L of size p-i' splits into (K, J) in C(p-i', i-i') ways, and the row
and column tails are permuted alike, so the signs cancel.  So phi_p maps
V(i,i) onto V(i,p), and since dim V(i,p) = C(n,i)^2 = dim V(i,i) it is an
isomorphism that sends each family onto nonzero multiples of the same
family at size p.  Linear dependencies among prefixed sums therefore do
not depend on p, and `layer_tags` makes the greedy choice at size i, on
the sign vectors of `minors.independent_pairs` over the C(n,i)^2 minors.

That argument rests on the closed form dim V(i,p) = C(n,i)^2, which is the
trust boundary of the selection.  `family_rank` checks the closed form
independently of phi_p, by exact elimination of the sign vectors of the
size-p family itself, and the tests compare `layer_basis` with the greedy
choice over expanded sums.

Depth 0 is a layer like the others: its one tag is ((), ()), whose sum at
size p is the invariant t_p, so a generator list is a walk over layers.

The depth-k layer is the irreducible module of highest weight
e_1 + .. + e_k - e_{n-k+1} - .. - e_n, and the prefixed sum of
((1..k), (n-k+1..n)) is its highest-weight vector (`highest_weight_tag`,
checked by `is_highest_weight`).  A GL_n-stable ideal holds the layer
exactly when it holds that one vector.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .minors import independent_pairs, prefix_pairs, tag_sum
from .polyring import Polynomial, mon_weight, raising_derivation


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

    Chosen at size i, where the depth-i sum of (P, Q) is the minor (P|Q):
    the pairs whose minors raise the rank of the depth-(i-1) sums
    (`minors.independent_pairs`), in `prefix_pairs` order.  The module
    docstring says why the choice holds at every such p.  Depth 0 has an
    empty depth -1 family and keeps its one tag ((), ()), the invariant
    t_p.  Past depth n // 2 the result is empty.
    """
    if not (0 <= i <= n):
        raise ValueError(f"depth must lie in 0..{n}")
    return independent_pairs(n, i, prefix_pairs(n, i), prefix_pairs(n, i - 1) if i else ())


def layer_generators(n: int, i: int, p: int) -> tuple:
    """The tags (P, Q, p) of the depth-i layer representatives at size p:
    the pairs `layer_tags(n, i)`, or none out of the nonzero range
    (i < 0 or i > min(p, n-p)), where the layer is zero.  A generator list
    is a walk over these, and `minors.tag_sum` expands a tag."""
    if not (1 <= p <= n):
        raise ValueError(f"minor size must lie in 1..{n}")
    if not (0 <= i <= min(p, n - p)):
        return ()
    tags = layer_tags(n, i)
    if len(tags) != layer_dimension(n, i):
        raise RuntimeError(f"layer ({i},{p}) at n={n}: rank step {len(tags)} != {layer_dimension(n, i)}")
    return tuple((P, Q, p) for P, Q in tags)


def layer_basis(n: int, i: int, p: int) -> tuple[Polynomial, ...]:
    """Representatives of the depth-i layer inside the depth-i span.

    The prefixed sums of size p of the pairs `layer_tags(n, i)`, each
    expanded once per process (`minors.tag_sum`): they extend any basis of
    the depth-(i-1) span to one of the depth-i span, and there are
    layer_dimension(n, i) of them.  They are the members the expanded
    greedy choice keeps, because the size-p families are isomorphic images
    of the size-i ones (module docstring); this rests on
    dim V(i,p) = C(n,i)^2, which `family_rank` and the tests cross-check.
    These representatives generate the same ideal contribution as the
    canonical layer, which is all the generator constructions need.  At
    depth 0 the one member is the invariant t_p.  Out of the nonzero range
    the layer is zero and the result is empty.
    """
    return tuple(tag_sum(n, tag) for tag in layer_generators(n, i, p))


def highest_weight_tag(n: int, k: int, p: int) -> tuple:
    """The tag of h_k at size p, ((1..k), (n-k+1..n), p): its sum is a
    vector of the depth-k layer of weight e_1 + .. + e_k - e_{n-k+1} - ..
    - e_n; h_0 is t_p."""
    return tuple(range(1, k + 1)), tuple(range(n - k + 1, n + 1)), p


def is_highest_weight(f: Polynomial, k: int) -> bool:
    """Whether f is a nonzero vector of weight lambda_k, the weight of the
    sum of `highest_weight_tag(f.n, k, p)`, that the simple raising
    derivations E_{a,a+1} (`polyring.raising_derivation`) all kill.

    Such an f in V(k,p) generates its depth-k layer.  Under GL_n it spans
    an irreducible module of highest weight lambda_k = (1^k, 0, (-1)^k),
    of dimension C(n,k)^2 - C(n,k-1)^2 = dim V(k,p) - dim V(k-1,p).  No
    vector of V(k-1,p) has weight lambda_k, whose positive part has size k
    (a depth-(k-1) sum has weight e_P - e_Q with |P| = k-1), so
    V(k,p) = V(k-1,p) + that module, a direct sum.  A GL_n-stable ideal is
    stable under every derivation of the action, so it holds the layer as
    soon as it holds f.  Only linear algebra in one degree is involved, no
    ideal."""
    n = f.n
    if f.is_zero() or not 0 <= k <= n // 2:
        return False
    weight = (1,) * k + (0,) * (n - 2 * k) + (-1,) * k
    if any(mon_weight(n, mon) != weight for mon in f.terms):
        return False
    return all(raising_derivation(f, a).is_zero() for a in range(1, n))
