"""Sparse polynomials with exact integer coefficients in the entries of a
generic square matrix.

Variables are the n*n coordinate functions of an n x n matrix, indexed by
(row, col) with 1-based indices.  Every polynomial constructed here is
homogeneous; addition enforces this.  Coefficients are plain Python ints,
so all arithmetic is exact.  Evaluation at a rational matrix produces an
exact Fraction (or int when the matrix has integer entries).

A monomial is a tuple of ((row, col), exponent) pairs strictly increasing
in (row, col) with all exponents positive, the one form the constructor
accepts (`checked_degree`).  The canonical term order is graded lex on the
exponent vector in (row, col) order; within one degree d it is the order of
the int `pack(n, mon, d)`, and serialization lists terms in descending
canonical order.  Diagonal conjugation gives every monomial a torus weight
in Z^n (`mon_weight`).
"""

from __future__ import annotations

import itertools

Var = tuple[int, int]
Mon = tuple[tuple[Var, int], ...]


def mon_degree(mon: Mon) -> int:
    return sum(e for _, e in mon)


def mon_mul(a: Mon, b: Mon) -> Mon:
    """Product of two monomials (merge of sorted exponent lists)."""
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def checked_degree(n: int, mon: Mon) -> int:
    """The degree of a monomial in canonical form for n: every variable in
    1..n, the variables strictly increasing in (row, col), every exponent at
    least 1; the unit monomial is empty.  ValueError for any other form."""
    d = 0
    prev = (0, 0)
    for v, e in mon:
        if not (1 <= v[0] <= n and 1 <= v[1] <= n and e >= 1 and v > prev):
            raise ValueError(f"monomial {mon} is not in canonical form for n={n}")
        prev = v
        d += e
    return d


def mon_to_record(mon: Mon) -> list[list[int]]:
    """The [row, col, exponent] triples of a record's monomial."""
    return [[r, c, e] for (r, c), e in mon]


def mon_from_record(n: int, triples) -> Mon:
    """The monomial of a record's triples, read only in the form
    `mon_to_record` prints: ints (not floats or bools) in `checked_degree`
    form."""
    mon = tuple(((r, c), e) for r, c, e in triples)
    if not all(type(x) is int for (r, c), e in mon for x in (r, c, e)):
        raise ValueError(f"monomial {mon} has an entry that is not an int")
    checked_degree(n, mon)
    return mon


def pack(n: int, mon: Mon, d: int) -> int:
    """The exponent digits of `mon` in (row, col) order, most significant
    first, each `d.bit_length()` bits wide.  Comparing the packs of two
    degree-d monomials compares them in the canonical order.  No exponent of
    a monomial of degree <= d overflows its digit, so for deg a + deg b = d,
    pack(n, a * b, d) == pack(n, a, d) + pack(n, b, d)."""
    bits = d.bit_length()
    top = n * n
    key = 0
    for (r, c), e in mon:
        key |= e << ((top - (r - 1) * n - c) * bits)
    return key


def unpack(n: int, key: int, d: int) -> Mon:
    """The monomial whose `pack(n, ., d)` digits are the low n*n digits of
    `key`."""
    bits = d.bit_length()
    digits = [(key >> ((n * n - 1 - k) * bits)) & ((1 << bits) - 1) for k in range(n * n)]
    return tuple(((k // n + 1, k % n + 1), e) for k, e in enumerate(digits) if e)


def mon_weight(n: int, mon: Mon) -> tuple[int, ...]:
    """Torus weight of a monomial: sum of e * (e_r - e_c) over its x_rc^e.

    Conjugation by diag(s_1, ..., s_n) scales x_rc by s_r / s_c, so a
    monomial of weight w is scaled by prod s_k^w_k."""
    w = [0] * n
    for (r, c), e in mon:
        w[r - 1] += e
        w[c - 1] -= e
    return tuple(w)


def monomials_of_degree(n: int, d: int, variables=None) -> list[Mon]:
    """All degree-d monomials in the n*n variables, or in the given list of
    (row, col) variables only, in descending canonical order."""
    if d < 0:
        return []
    if d == 0:
        return [()]
    if variables is None:
        variables = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    out = []
    for combo in itertools.combinations_with_replacement(variables, d):
        exps: dict[Var, int] = {}
        for v in combo:
            exps[v] = exps.get(v, 0) + 1
        out.append(tuple(sorted(exps.items())))
    # one degree, so the exponent digits alone give the order
    out.sort(key=lambda m: pack(n, m, d), reverse=True)
    return out


def monomials_of_weight(n: int, d: int, weight) -> list[Mon]:
    """The degree-d monomials of torus weight `weight` (n ints), in the
    descending canonical order of `monomials_of_degree`.

    Enumerated directly, choosing exponents variable by variable in (row,
    col) order, largest first; a variable passed over with exponent 0 is a
    step of a loop, not a recursion.  A branch is cut as soon as the weight
    still to be made up is out of reach: each further unit of degree lowers
    the sum of its positive parts by at most one, a positive part needs a
    variable left in its row, and a negative part one left in its column.
    Choosing x_rc changes only parts r and c, so the sum is kept as a
    running total and only those two parts are checked.
    """
    rem = list(weight)
    chosen: list[tuple[Var, int]] = []
    out: list[Mon] = []

    def extend(k: int, left: int, pos: int):
        # variables k, k+1, ... (row-major, 0-based) are still to be chosen;
        # pos is the sum of the positive parts of rem
        for k in range(k, n * n):
            r, c = divmod(k, n)
            row = (k + 1) // n  # the row of the next variable
            last = r == row == n - 1
            for e in range(left, 0, -1):
                a, b = rem[r], rem[c]
                p = pos
                if r != c:
                    rem[r], rem[c] = a - e, b + e
                    if a > 0:
                        p -= e if e < a else a
                    if b + e > 0:
                        p += e if b >= 0 else b + e
                # parts r and c are out of reach if no later variable changes
                # them (the same test closes the loop, for exponent 0)
                if p <= left - e and not (
                    (c < row and rem[c] > 0) or (r < row and rem[r] > 0) or (last and rem[c] < 0)
                ):
                    chosen.append(((r + 1, c + 1), e))
                    if e < left:
                        extend(k + 1, left - e, p)
                    elif not any(rem):
                        out.append(tuple(chosen))
                    chosen.pop()
                rem[r], rem[c] = a, b
            if (c < row and rem[c] > 0) or (r < row and rem[r] > 0) or (last and rem[c] < 0):
                return

    pos = sum(v for v in rem if v > 0)
    if d == 0:
        return [] if any(rem) else [()]
    if pos <= d:
        extend(0, d, pos)
    return out


class Polynomial:
    """Immutable sparse homogeneous polynomial over the generic matrix ring.

    Instances should never be mutated after construction; all operations
    return new polynomials, so values are safe to share and cache.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("matrix size must be positive")
        cleaned: dict[Mon, int] = {}
        degree = None
        if terms:
            for mon, coeff in dict(terms).items():
                # exactly int: a bool would print as "True"
                if type(coeff) is not int:
                    raise TypeError("coefficients must be exact integers")
                if coeff == 0:
                    continue
                d = checked_degree(n, mon)
                if degree is None:
                    degree = d
                elif d != degree:
                    raise ValueError("terms of different total degree")
                cleaned[mon] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, value: int) -> "Polynomial":
        return cls(n, {(): value})

    @classmethod
    def variable(cls, n: int, row: int, col: int) -> "Polynomial":
        return cls(n, {(((row, col), 1),): 1})

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Common total degree of the terms; -1 for the zero polynomial."""
        for mon in self.terms:
            return mon_degree(mon)
        return -1

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; identity hashing would be a trap

    def sorted_terms(self) -> list[tuple[Mon, int]]:
        """Terms in descending canonical order (leading term first).  The
        terms share one degree, so they sort by `pack`."""
        n, d = self.n, self.degree
        return sorted(self.terms.items(), key=lambda t: pack(n, t[0], d), reverse=True)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError("polynomials over different matrix sizes")

    def __add__(self, other):
        if other == 0:
            return self
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        if self.degree != other.degree:
            raise ValueError("sum of nonzero polynomials of different degrees")
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            nc = terms.get(mon, 0) + c
            if nc:
                terms[mon] = nc
            else:
                terms.pop(mon, None)
        return Polynomial(self.n, terms)

    __radd__ = __add__  # lets sum() start from 0

    def __neg__(self):
        return Polynomial(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if other == 0:
            return self
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero(self.n)
            return Polynomial(self.n, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict[Mon, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mon_mul(m1, m2)
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return Polynomial(self.n, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def times_monomial(self, mon: Mon) -> "Polynomial":
        """Fast product with a single monomial."""
        if not mon:
            return self
        return Polynomial(self.n, {mon_mul(m, mon): c for m, c in self.terms.items()})

    # -- evaluation --------------------------------------------------------

    def evaluate(self, matrix):
        """Substitute matrix entries for the variables; exact arithmetic.

        `matrix` is a nested sequence of Fractions/ints indexed
        [row-1][col-1].
        """
        total = 0
        for mon, coeff in self.terms.items():
            v = coeff
            for (r, c), e in mon:
                x = matrix[r - 1][c - 1]
                v = v * (x if e == 1 else x**e)
            total = total + v
        return total

    # -- serialization -----------------------------------------------------

    def to_records(self) -> list[dict]:
        """JSON-friendly terms: coeff as decimal string, monomial as
        [row, col, exponent] triples sorted by (row, col); descending order.
        The CLI's encoder writes the text of these records straight from
        the terms, without building them."""
        return [{"coeff": str(c), "monomial": mon_to_record(mon)} for mon, c in self.sorted_terms()]

    @classmethod
    def from_records(cls, n: int, records) -> "Polynomial":
        terms: dict[Mon, int] = {}
        for rec in records:
            mon = mon_from_record(n, rec["monomial"])
            terms[mon] = terms.get(mon, 0) + int(rec["coeff"])
        return cls(n, terms)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"Polynomial(n={self.n}, {self})"

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for mon, c in self.sorted_terms():
            factors = "*".join(
                f"x[{r},{col}]" + (f"^{e}" if e > 1 else "") for (r, col), e in mon
            )
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = factors
            else:
                body = f"{abs(c)}*{factors}"
            sign = "-" if c < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


def raising_derivation(f: Polynomial, a: int) -> Polynomial:
    """E_{a,a+1} applied to f: the derivative at t = 0 of f(X + t[X, E]),
    E the matrix unit at (a+1, a), that is of f conjugated by 1 - tE.

    It sends x_{r,a} to x_{r,a+1} and x_{a+1,c} to -x_{a,c}, each a step of
    e_a - e_{a+1} in torus weight, and extends to products as a derivation,
    so it raises the weight of f by e_a - e_{a+1}.  A GL_n-stable space is
    stable under it, and a weight vector that E_{1,2}..E_{n-1,n} all kill
    is a highest-weight vector (`schur.is_highest_weight`)."""
    n, b = f.n, a + 1
    if not 1 <= a < n:
        raise ValueError(f"raising index must lie in 1..{n - 1}")
    out: dict[Mon, int] = {}

    def add(mon: Mon, old: Var, new: Var, c: int):
        exps = dict(mon)
        if exps[old] == 1:
            del exps[old]
        else:
            exps[old] -= 1
        exps[new] = exps.get(new, 0) + 1
        key = tuple(sorted(exps.items()))
        out[key] = out.get(key, 0) + c

    for mon, c in f.terms.items():
        for (r, s), e in mon:
            if s == a:
                add(mon, (r, s), (r, b), e * c)
            if r == b:
                add(mon, (r, s), (a, s), -e * c)
    return Polynomial(n, out)
