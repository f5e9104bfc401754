"""Incremental sparse Gaussian elimination over Q, in Python ints.

Vectors are dicts from int columns to coefficients.  Columns are ordered
by value, with no sort key: a row's smallest column is its pivot, so a
caller picks ints in its pivot order.  Graded pieces use the exponent
digits `polyring.pack`, so the pivot is the smallest monomial.  Against
the largest-monomial pivot this order more than halves the time of t_7 at
n = 7 on the diagonal slice, and cuts that of `membership --partition
3,3,1 --i 2`, on the weight blocks, by three quarters.

Each stored row is a primitive integer vector with a positive lead L at its
pivot.  Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): the
work vector is an int vector times one running denominator.  At a pivot
whose work coefficient is c, it subtracts (c // L) * row when L divides c;
otherwise it first scales the work vector, and the denominator, by
L / gcd(c, L).  Either step cancels c, so reduction strictly increases the
leading column and terminates.  A rational input has its denominators
cleared once, on entry.  Provenance is integral too: each row keeps int
coefficients over the original inserts and one positive denominator,
coprime to them.

A new row is reduced only at its lead: elimination stops at the first
column that is not a pivot, and the columns above it are stored as they
stand, pivots among them.  `reduce` still clears every pivot of a query,
so no output changes.  Whether a row is independent depends only on the
span.  The pivot set, the fully reduced residual and the annihilator are
each unique given the row space and the column order.  And a member's
combination over the linearly independent inserted rows is unique, so
`provenance_of` gives the same certificate whatever the stored rows are.

A Fraction appears only in what the basis returns: a residual or combo of
`reduce` whose denominator does not cancel, a coefficient of
`provenance_of`, and a value of `annihilator`.  Each is an int whenever its
value is integral.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

_INT = frozenset((int,))
_denominator = attrgetter("denominator")


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
        # pivot column -> {column: int}, primitive with a positive lead
        self.rows: dict = {}
        # pivot column -> {tag: int}: the row is the sum of tag * coefficient
        # over original inserts, divided by den[pivot], kept where it is not 1
        self.prov: dict = {}
        self.den: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    # -- core reduction --------------------------------------------------------

    def _eliminate(self, vec, lead_only):
        """(residual, combo, scale), all ints: scale * vec equals
        residual + sum(combo * row).  See `reduce`; with `lead_only`,
        elimination stops at the first column that is not a pivot, and the
        residual is that column with everything above it (`insert`)."""
        work = {col: v for col, v in vec.items() if v}
        scale = 1
        if not _INT.issuperset(map(type, work.values())):
            scale = lcm(*map(_denominator, work.values()))
            work = {col: v.numerator * (scale // v.denominator) for col, v in work.items()}
        # the heap pops the smallest column, as the int a row holds, so a
        # new row shares it with the rows it came from
        heap = list(work)
        heapq.heapify(heap)
        heappop, heappush, get, rows = heapq.heappop, heapq.heappush, work.get, self.rows
        residual: dict = {}
        combo: dict = {}
        while heap:
            col = heappop(heap)
            c = work.pop(col, 0)
            if not c:
                continue
            row = rows.get(col)
            if row is None:
                residual[col] = c
                if lead_only:
                    residual.update(work)
                    break
                continue
            lead = row[col]
            if lead != 1:
                g = gcd(c, lead)
                if g != lead:
                    # the Bareiss step: scale everything so that lead divides c
                    f = lead // g
                    scale *= f
                    for d in (work, residual, combo):
                        for k in d:
                            d[k] *= f
                c //= g
            combo[col] = c
            # subtracting c*row cancels the popped entry, c * lead
            for col2, v in row.items():
                if col2 == col:
                    continue
                nv = get(col2, 0) - c * v
                if nv:
                    if col2 not in work:
                        heappush(heap, col2)
                    work[col2] = nv
                else:
                    work.pop(col2, None)
        return residual, combo, scale

    def reduce(self, vec):
        """Reduce `vec` fully against the basis.

        Returns (residual, combo): residual is a dict free of pivot columns,
        combo maps pivot -> coefficient with vec = residual + sum(combo * row).
        """
        residual, combo, scale = self._eliminate(vec, False)
        if scale != 1:
            residual = {col: _div(v, scale) for col, v in residual.items()}
            combo = {col: _div(v, scale) for col, v in combo.items()}
        return residual, combo

    def contains(self, vec) -> bool:
        return not self._eliminate(vec, False)[0]

    def insert(self, vec, tag=None) -> bool:
        """Add `vec` to the span.  Returns True if it was independent.

        The stored row is `vec` reduced only until its smallest column is not
        a pivot, divided by its content (module docstring)."""
        residual, combo, scale = self._eliminate(vec, True)
        if not residual:
            return False
        pivot = next(iter(residual))  # the popped column leads the rest
        g = gcd(*residual.values())
        if residual[pivot] < 0:
            g = -g
        self.rows[pivot] = residual if g == 1 else {col: v // g for col, v in residual.items()}
        if self.track:
            # the new row is (scale * vec - sum(combo * rows)) / g
            if g > 0:
                num, den = self._provenance({tag: scale}, {piv: -c for piv, c in combo.items()})
            else:
                num, den = self._provenance({tag: -scale}, combo)
            den *= abs(g)
            common = gcd(den, *num.values()) if den != 1 else 1
            if common != 1:
                den //= common
            # a fresh dict drops the zeros and is no larger than its entries need
            self.prov[pivot] = {t: v // common for t, v in num.items() if v}
            if den != 1:
                self.den[pivot] = den
        return True

    # -- certificates ------------------------------------------------------------

    def _provenance(self, out, combo):
        """(num, den) with num / den = out + sum(combo * provenance of row),
        `out` holding ints and updated in place, zeros left in; combo values
        are exact rationals."""
        den, row_den, get = 1, self.den.get, out.get
        for piv, c in combo.items():
            d = row_den(piv, 1)
            if type(c) is not int:
                d *= c.denominator
                c = c.numerator
            if den % d:
                f = d // gcd(den, d)
                den *= f
                for t in out:
                    out[t] *= f
            if den != d:
                c *= den // d
            for t, pc in self.prov[piv].items():
                out[t] = get(t, 0) + c * pc
        return out, den

    def provenance_of(self, combo) -> dict:
        """Expand a reduce() combo into coefficients over original insert tags."""
        out, den = self._provenance({}, combo)
        return {t: v if den == 1 else _div(v, den) for t, v in out.items() if v}

    def annihilator(self, free_column) -> dict:
        """Linear functional vanishing on the row span with value 1 on
        `free_column` (which must not be a pivot)."""
        if free_column in self.rows:
            raise ValueError("column lies under a pivot")
        lam: dict = {free_column: 1}
        for piv in sorted(self.rows, reverse=True):
            row = self.rows[piv]
            s = sum(v * lam[col] for col, v in row.items() if col != piv and col in lam)
            if s:
                lam[piv] = _div(-s, row[piv])
        return lam


def apply_functional(lam: dict, vec: dict):
    total = 0
    for col, v in vec.items():
        c = lam.get(col)
        if c is not None:
            total += c * v
    return total
