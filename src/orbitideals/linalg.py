"""Incremental sparse Gaussian elimination over Q.

Vectors are dicts from int columns to coefficients.  Columns are ordered
by value, with no sort key: a row's largest column is its pivot, so a
caller picks ints in its pivot order (graded pieces use `term_key`).
Basis rows are kept monic at the pivot, so reduction strictly decreases
the leading column and terminates.

Coefficients are exact rationals held as Python ints wherever their value is
integral and as Fractions only otherwise; mixed int/Fraction arithmetic is
exact, so one code path serves both.  Stored rows and provenance keep to
this rule: dividing by a lead yields an int whenever the quotient is one.
"""

from __future__ import annotations

import heapq
from fractions import Fraction


def _div(a, b):
    """The exact quotient a / b: an int when it is integral, else a Fraction."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


class TriangularBasis:
    """Row-reduced spanning set supporting rank queries, membership
    reduction and provenance tracking for exact certificates."""

    def __init__(self, track=False):
        self.track = track
        self.rows: dict = {}  # pivot column -> {column: coeff}, monic at pivot
        self.prov: dict = {}  # pivot column -> {tag: coeff over original inserts}

    @property
    def rank(self) -> int:
        return len(self.rows)

    # -- core reduction --------------------------------------------------------

    def reduce(self, vec):
        """Fully reduce `vec` against the basis.

        Returns (residual, combo): residual is a dict free of pivot columns,
        combo maps pivot -> coefficient with vec = residual + sum(combo * row).
        """
        work = {col: v for col, v in vec.items() if v}
        # a min-heap of -col pops the largest column; the pair keeps the
        # column's own int, so a new row shares it with the rows it came from
        heap = [(-col, col) for col in work]
        heapq.heapify(heap)
        residual: dict = {}
        combo: dict = {}
        while heap:
            _, col = heapq.heappop(heap)
            c = work.pop(col, 0)
            if not c:
                continue
            row = self.rows.get(col)
            if row is None:
                residual[col] = c
                continue
            combo[col] = c
            # row is monic at col; subtracting c*row cancels the popped entry
            for col2, v in row.items():
                if col2 == col:
                    continue
                nv = work.get(col2, 0) - c * v
                if nv:
                    if col2 not in work:
                        heapq.heappush(heap, (-col2, col2))
                    work[col2] = nv
                else:
                    work.pop(col2, None)
        return residual, combo

    def contains(self, vec) -> bool:
        residual, _ = self.reduce(vec)
        return not residual

    def insert(self, vec, tag=None) -> bool:
        """Add `vec` to the span.  Returns True if it was independent."""
        residual, combo = self.reduce(vec)
        if not residual:
            return False
        pivot = max(residual)
        lead = residual[pivot]
        self.rows[pivot] = {col: _div(v, lead) for col, v in residual.items()}
        if self.track:
            # the new row is (vec - sum(combo * rows)) / lead
            prov = {tag: 1}
            for piv, c in combo.items():
                for t, pc in self.prov[piv].items():
                    prov[t] = prov.get(t, 0) - c * pc
            self.prov[pivot] = {t: _div(v, lead) for t, v in prov.items() if v}
        return True

    # -- certificates ------------------------------------------------------------

    def provenance_of(self, combo) -> dict:
        """Expand a reduce() combo into coefficients over original insert tags."""
        out: dict = {}
        for piv, c in combo.items():
            for t, pc in self.prov[piv].items():
                nv = out.get(t, 0) + c * pc
                if nv:
                    out[t] = nv
                else:
                    out.pop(t, None)
        return out

    def annihilator(self, free_column) -> dict:
        """Linear functional vanishing on the row span with value 1 on
        `free_column` (which must not be a pivot)."""
        if free_column in self.rows:
            raise ValueError("column lies under a pivot")
        lam: dict = {free_column: 1}
        for piv in sorted(self.rows):
            s = sum(v * lam[col] for col, v in self.rows[piv].items() if col != piv and col in lam)
            if s:
                lam[piv] = -s
        return lam


def apply_functional(lam: dict, vec: dict):
    total = 0
    for col, v in vec.items():
        c = lam.get(col)
        if c is not None:
            total += c * v
    return total
