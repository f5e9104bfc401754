"""Minors of the generic matrix and the sums-of-minors generator spaces.

The building blocks for the defining equations of nilpotent orbit closures:

* ``minor(n, rows, cols)`` -- determinant of a square submatrix of the
  generic n x n matrix, expanded as a polynomial.
* ``principal_minor_sum(n, p)`` -- sum of all principal p x p minors; up to
  a global sign this is a coefficient of the characteristic polynomial, and
  it is invariant under conjugation.
* ``prefixed_minor_sum(n, P, Q, p)`` -- sum over all J of the p x p minors
  whose rows are (P, J) and columns are (Q, J), for fixed index prefixes
  P, Q of equal length.  The span of these, over all prefixes of length i,
  is the degree-p generator space with prefix depth i.
* ``minor_sum_basis(n, i, p)`` -- a maximal independent subfamily, selected
  greedily in lexicographic prefix order by exact rank updates.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .linalg import TriangularBasis
from .polyring import Polynomial, term_key


def sort_with_sign(seq):
    """Sort a sequence, returning (sorted tuple, permutation sign).

    The sign is 0 when the sequence has a repeated entry.
    """
    items = list(seq)
    inversions = 0
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            if items[a] > items[b]:
                inversions += 1
            elif items[a] == items[b]:
                return tuple(sorted(items)), 0
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
    r = len(rows)
    # Cofactor expansion row by row, memoized on the used-column subset.
    states: dict[int, dict] = {0: {(): 1}}
    for k in range(r):
        row = rows[k]
        new_states: dict[int, dict] = {}
        for mask, terms in states.items():
            for j in range(r):
                bit = 1 << j
                if mask & bit:
                    continue
                # parity of the number of already-used columns right of j
                above = bin(mask >> (j + 1)).count("1")
                sign = -1 if above % 2 else 1
                var = ((row, cols[j]), 1)
                target = new_states.setdefault(mask | bit, {})
                for mon, c in terms.items():
                    nm = mon + (var,)
                    nc = target.get(nm, 0) + sign * c
                    if nc:
                        target[nm] = nc
                    else:
                        target.pop(nm, None)
        states = new_states
    return Polynomial(n, states[(1 << r) - 1])


@lru_cache(maxsize=None)
def principal_minor_sum(n: int, p: int) -> Polynomial:
    """Sum of all principal p x p minors of the generic n x n matrix."""
    if not (1 <= p <= n):
        raise ValueError(f"minor size must lie in 1..{n}")
    return prefixed_minor_sum(n, (), (), p)


def prefixed_minor_sum(n: int, row_prefix, col_prefix, size: int) -> Polynomial:
    """Sum over J of the minors (row_prefix, J | col_prefix, J).

    J runs over all index sets of size `size - len(prefix)` disjoint from
    both prefixes (terms meeting a prefix repeat a row or column and vanish).
    Each minor is sign-normalized by sorting rows and columns and applying
    the permutation signs.  The empty sum and duplicated prefix entries both
    give the zero polynomial.
    """
    P = tuple(row_prefix)
    Q = tuple(col_prefix)
    if len(P) != len(Q):
        raise ValueError("row and column prefixes must have equal length")
    i = len(P)
    if not (0 <= i <= size <= n):
        raise ValueError(f"need 0 <= prefix length <= size <= {n}")
    for v in P + Q:
        if not (1 <= v <= n):
            raise ValueError(f"prefix entries must lie in 1..{n}")
    if len(set(P)) < i or len(set(Q)) < i:
        return Polynomial.zero(n)
    used = set(P) | set(Q)
    free = [v for v in range(1, n + 1) if v not in used]
    terms: dict = {}
    for J in itertools.combinations(free, size - i):
        rows, rsign = sort_with_sign(P + J)
        cols, csign = sort_with_sign(Q + J)
        sign = rsign * csign
        for mon, c in minor(n, rows, cols).terms.items():
            terms[mon] = terms.get(mon, 0) + sign * c
    return Polynomial(n, terms)  # drops the cancelled terms


def minor_sum_family(n: int, prefix_len: int, size: int):
    """The spanning family of prefixed minor sums, as ((P, Q), polynomial).

    Prefixes run over sorted index sets in lexicographic (P, Q) order; a
    permuted prefix only flips the sign of the sorted one, so sorted pairs
    already span the same space and any permuted element is dependent on an
    earlier one.  The prefix length is capped at `size`: longer prefixes add
    nothing because the space stabilizes once the prefix fills the minor.
    """
    if not (1 <= size <= n):
        raise ValueError(f"minor size must lie in 1..{n}")
    if prefix_len < 0:
        raise ValueError("prefix length must be non-negative")
    i = min(prefix_len, size)
    subsets = list(itertools.combinations(range(1, n + 1), i))
    for P in subsets:
        for Q in subsets:
            yield (P, Q), prefixed_minor_sum(n, P, Q, size)


@lru_cache(maxsize=None)
def minor_sum_basis(n: int, prefix_len: int, size: int) -> tuple[Polynomial, ...]:
    """Maximal linearly independent subfamily of the prefixed minor sums,
    chosen greedily in lexicographic prefix order with exact rank updates.

    The cardinality equals C(n, m)^2 with m = min(prefix_len, size, n-size).
    """
    basis = TriangularBasis()
    return tuple(
        poly
        for _, poly in minor_sum_family(n, prefix_len, size)
        if not poly.is_zero() and basis.insert({term_key(n, mon): c for mon, c in poly.terms.items()})
    )


def family_rank(n: int, prefix_len: int, size: int) -> int:
    """Exact rank of the full spanning family of prefixed minor sums."""
    return len(minor_sum_basis(n, prefix_len, size))
