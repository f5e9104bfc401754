"""Minors of the generic matrix and the sums-of-minors generator spaces.

* ``minor(n, rows, cols)`` -- determinant of a square submatrix of the
  generic n x n matrix, expanded along its first row from cached smaller
  minors.
* ``principal_minor_sum(n, p)`` -- sum of all principal p x p minors; up to
  a global sign this is a coefficient of the characteristic polynomial, and
  it is invariant under conjugation.
* ``prefix_pairs(n, i)`` -- the sorted length-i prefix pairs, lex in (P, Q).
* ``signed_minors(n, P, Q, p)`` -- the terms (R, C, sign) of the prefixed
  sum over J of (P,J|Q,J), signed by ``sort_with_sign``; the expansion
  ``prefixed_minor_sum(n, P, Q, p)`` and `independent_pairs` read them.
  Over all prefixes of length i, these sums span the degree-p generator
  space of depth i.  `orbit.jordan_values` signs its terms the same way.
* ``tag_weight(n, tag)``, ``tag_sum(n, tag)`` and ``tag_restriction(n, tag)``
  -- what a generator known by its tag (P, Q, p), the prefixed sum over J
  of (P,J|Q,J) at size p, needs: its torus weight e_P - e_Q, read with no
  expansion and refusing a malformed tag; its expansion, made once per
  process; and its diagonal restriction, from a closed form.
* ``independent_pairs(n, p, pairs, spanned)`` -- the greedy choice of
  independent prefixed sums, made on their sign vectors over the minors.
* ``minor_sum_basis(n, i, p)`` -- a maximal independent subfamily in
  lexicographic prefix order, of which ``family_rank`` is the size.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .linalg import TriangularBasis
from .polyring import Polynomial


def sort_with_sign(seq):
    """Sort a sequence of distinct entries, returning (sorted tuple,
    permutation sign).  A repeated entry raises ValueError."""
    items = list(seq)
    inversions = 0
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            if items[a] > items[b]:
                inversions += 1
            elif items[a] == items[b]:
                raise ValueError(f"repeated entry {items[a]!r}")
    return tuple(sorted(items)), (-1 if inversions % 2 else 1)


def _validate_index_set(n: int, idx, what: str):
    if len(idx) < 1:
        raise ValueError(f"{what} must be nonempty")
    if any(not (1 <= v <= n) for v in idx):
        raise ValueError(f"{what} entries must lie in 1..{n}")
    if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
        raise ValueError(f"{what} must be strictly increasing")


@lru_cache(maxsize=None)
def minor(n: int, rows: tuple, cols: tuple) -> Polynomial:
    """Determinant of the submatrix with the given rows and columns.

    `rows` and `cols` are strictly increasing index tuples of equal size r;
    the result is homogeneous of degree r with r! terms.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    _validate_index_set(n, rows, "rows")
    _validate_index_set(n, cols, "cols")
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    # Laplace along rows[0], whose variable precedes all of the rest's
    row, rest = rows[0], rows[1:]
    if not rest:
        return Polynomial(n, {(((row, cols[0]), 1),): 1})
    terms = {}
    for j, col in enumerate(cols):
        var = ((row, col), 1)
        for mon, c in minor(n, rest, cols[:j] + cols[j + 1 :]).terms.items():
            terms[(var,) + mon] = -c if j % 2 else c
    return Polynomial(n, terms)


def prefix_pairs(n: int, i: int):
    """The pairs (P, Q) of sorted length-i index tuples in 1..n, in lex
    (P, Q) order."""
    return itertools.product(itertools.combinations(range(1, n + 1), i), repeat=2)


def signed_minors(n: int, P: tuple, Q: tuple, size: int):
    """The terms (rows, cols, sign) of the sum over J of (P, J | Q, J): J runs
    over the (size - len(P))-subsets of 1..n outside P and Q, and rows, cols
    are (P, J), (Q, J) sorted, with the product of the two sorting signs.
    A prefix with a repeated entry gives no term."""
    if len(set(P)) < len(P) or len(set(Q)) < len(Q):
        return
    free = [v for v in range(1, n + 1) if v not in P and v not in Q]
    for J in itertools.combinations(free, size - len(P)):
        rows, rsign = sort_with_sign(P + J)
        cols, csign = sort_with_sign(Q + J)
        yield rows, cols, rsign * csign


@lru_cache(maxsize=None)
def principal_minor_sum(n: int, p: int) -> Polynomial:
    """Sum of all principal p x p minors of the generic n x n matrix."""
    return prefixed_minor_sum(n, (), (), p)


def prefixed_minor_sum(n: int, row_prefix, col_prefix, size: int) -> Polynomial:
    """Sum over J of the minors (row_prefix, J | col_prefix, J), the terms of
    `signed_minors`, for a size in 1..n.  The empty sum and duplicated
    prefix entries both give the zero polynomial."""
    P = tuple(row_prefix)
    Q = tuple(col_prefix)
    if len(P) != len(Q):
        raise ValueError("row and column prefixes must have equal length")
    if not (1 <= size <= n and len(P) <= size):
        raise ValueError(f"need prefix length <= size and 1 <= size <= {n}")
    for v in P + Q:
        if not (1 <= v <= n):
            raise ValueError(f"prefix entries must lie in 1..{n}")
    terms: dict = {}
    for rows, cols, sign in signed_minors(n, P, Q, size):
        for mon, c in minor(n, rows, cols).terms.items():
            terms[mon] = terms.get(mon, 0) + sign * c
    return Polynomial(n, terms)  # drops the cancelled terms


def tag_weight(n: int, tag) -> tuple[int, ...]:
    """The torus weight e_P - e_Q of the sum of a tag (P, Q, p), the weight
    `polyring.mon_weight` gives each of its terms: every minor (P,J|Q,J)
    uses the rows P+J and the columns Q+J once each, and J cancels.
    ValueError unless P and Q are strictly increasing tuples of one length
    with entries in 1..n, and p lies in max(|P|, 1)..n."""
    P, Q, p = tag
    entries = set(range(1, n + 1))
    if len(P) != len(Q) or not max(len(P), 1) <= p <= n or any(list(S) != sorted(set(S) & entries) for S in (P, Q)):
        raise ValueError(f"malformed tag {tag!r} for n = {n}")
    return tuple((r in P) - (r in Q) for r in range(1, n + 1))


@lru_cache(maxsize=None)
def tag_sum(n: int, tag) -> Polynomial:
    """`prefixed_minor_sum` of a tag (P, Q, p), expanded once per process."""
    return prefixed_minor_sum(n, *tag)


def tag_restriction(n: int, tag) -> Polynomial:
    """rho of the sum of a tag (P, Q, p), the sum of its terms in the x_rr
    alone: [P = Q] x_P e_(p-|P|)(x_rr, r not in P), with no expansion.  A
    minor (R|C) has a monomial in the x_rr only when R = C, and then just
    the one of the identity, with coefficient +1; J avoids P and Q, so
    P+J and Q+J are one set only when P = Q, and both sorting signs agree."""
    P, Q, p = tag
    if P != Q:
        return Polynomial.zero(n)
    rest = [r for r in range(1, n + 1) if r not in P]
    diagonal = lambda J: tuple(((r, r), 1) for r in sorted(P + J))
    return Polynomial(n, {diagonal(J): 1 for J in itertools.combinations(rest, p - len(P))})


def independent_pairs(n: int, size: int, pairs, spanned=()) -> tuple:
    """The pairs of `pairs`, in order, whose prefixed sums of the given size
    raise the rank of the sums of `spanned` and of those kept before them.

    Decided with no expansion, on the sums' `signed_minors` sign vectors over
    the C(n, size)^2 minors (R|C), stopping at full rank.  This is exact:
    every monomial of (R|C) uses exactly the rows R and the columns C, so
    distinct minors share no monomial, and a family of sums has the linear
    relations of its vectors (one sum names each (R|C) once: J = R minus P).
    """
    index = {s: k for k, s in enumerate(itertools.combinations(range(1, n + 1), size))}
    width = len(index)

    def vector(P, Q):
        return {index[rows] * width + index[cols]: sign for rows, cols, sign in signed_minors(n, P, Q, size)}

    basis = TriangularBasis()
    for P, Q in spanned:
        basis.insert(vector(P, Q))
    return tuple((P, Q) for P, Q in pairs if basis.rank < width * width and basis.insert(vector(P, Q)))


def _family_pairs(n: int, prefix_len: int, size: int):
    """The prefix pairs of `minor_sum_family`, the arguments validated."""
    if not (1 <= size <= n):
        raise ValueError(f"minor size must lie in 1..{n}")
    if prefix_len < 0:
        raise ValueError("prefix length must be non-negative")
    return prefix_pairs(n, min(prefix_len, size))


def minor_sum_family(n: int, prefix_len: int, size: int):
    """The spanning family of prefixed minor sums, as ((P, Q), polynomial).

    Prefixes run over sorted index sets in lexicographic (P, Q) order; a
    permuted prefix only flips the sign of the sorted one, so sorted pairs
    already span the same space and any permuted element is dependent on an
    earlier one.  The prefix length is capped at `size`: longer prefixes add
    nothing because the space stabilizes once the prefix fills the minor.
    """
    for P, Q in _family_pairs(n, prefix_len, size):
        yield (P, Q), prefixed_minor_sum(n, P, Q, size)


@lru_cache(maxsize=None)
def _kept_pairs(n: int, prefix_len: int, size: int) -> tuple:
    """The pairs of the family members `minor_sum_basis` keeps.  Callers
    cap `prefix_len` at `size`, so every longer prefix shares one entry."""
    return independent_pairs(n, size, _family_pairs(n, prefix_len, size))


@lru_cache(maxsize=None)
def minor_sum_basis(n: int, prefix_len: int, size: int) -> tuple[Polynomial, ...]:
    """Maximal linearly independent subfamily of the prefixed minor sums,
    chosen greedily in lexicographic prefix order (`independent_pairs`).

    The cardinality equals C(n, m)^2 with m = min(prefix_len, size, n-size).
    """
    return tuple(prefixed_minor_sum(n, P, Q, size) for P, Q in _kept_pairs(n, min(prefix_len, size), size))


def family_rank(n: int, prefix_len: int, size: int) -> int:
    """Exact rank of the full spanning family of prefixed minor sums."""
    return len(_kept_pairs(n, min(prefix_len, size), size))
