"""Independent integer arithmetic for checking orbitideals outputs.

Nothing here imports orbitideals.  Determinants, characteristic
polynomials, orbit points, minor expansions and polynomial products are
computed from scratch, so a fault in the package cannot hide itself by
corrupting the check as well.  Matrix indices are 0-based; a polynomial is
a dict from a monomial (a sorted tuple of flat variable indices r*n + c,
one entry per unit of exponent) to an integer or Fraction coefficient.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import comb, gcd

# -- matrices -----------------------------------------------------------------


def det(m) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk, row_k = a[k][k], a[k]
        for r in range(k + 1, n):
            row, ark = a[r], a[r][k]
            for c in range(k + 1, n):
                row[c] = (row[c] * akk - ark * row_k[c]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def rank(m) -> int:
    """Rank of an integer matrix by elimination with gcd-reduced rows."""
    a = [list(row) for row in m]
    cols = len(a[0]) if a else 0
    r = 0
    for c in range(cols):
        pivot = next((k for k in range(r, len(a)) if a[k][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        top = a[r]
        for k in range(r + 1, len(a)):
            if a[k][c]:
                f, g = top[c], a[k][c]
                row = [x * f - y * g for x, y in zip(a[k], top)]
                d = 0
                for x in row:
                    d = gcd(d, x)
                a[k] = [x // d for x in row] if d > 1 else row
        r += 1
    return r


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def adjugate(g):
    n = len(g)
    adj = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            sub = [row[:c] + row[c + 1 :] for k, row in enumerate(g) if k != r]
            adj[c][r] = (-1) ** (r + c) * det(sub)
    return adj


def charpoly(a) -> list[int]:
    """Coefficients c_0..c_n of det(xI - a) by Faddeev-LeVerrier; every
    division is exact for an integer matrix."""
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = matmul(a, m)
        for d in range(n):
            m[d][d] += coeffs[n - k + 1]
        am = matmul(a, m)
        trace = sum(am[d][d] for d in range(n))
        if trace % k:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs[n - k] = -trace // k
    return coeffs


def invariant(a, p: int) -> int:
    """Sum of the principal p x p minors: (-1)^p times the coefficient of
    x^(n-p) in the characteristic polynomial."""
    n = len(a)
    return (-1) ** p * charpoly(a)[n - p]


def companion(n: int, p: int):
    """Companion matrix of x^n - x^(n-p): every invariant but the p-th vanishes."""
    c = [[0] * n for _ in range(n)]
    for r in range(1, n):
        c[r][r - 1] = 1
    c[n - p][n - 1] = 1
    return c


# -- nilpotent orbits ---------------------------------------------------------


def conjugate(parts) -> tuple[int, ...]:
    return tuple(sum(1 for v in parts if v >= k) for k in range(1, max(parts) + 1))


def jordan(parts):
    n = sum(parts)
    m = [[0] * n for _ in range(n)]
    offset = 0
    for part in parts:
        for k in range(part - 1):
            m[offset + k][offset + k + 1] = 1
        offset += part
    return m


def jordan_type(x) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix read from the ranks of its powers;
    raises if the matrix is not nilpotent."""
    n = len(x)
    kernels = [0]
    power = x
    while kernels[-1] < n:
        if len(kernels) > n:
            raise ValueError("matrix is not nilpotent")
        kernels.append(n - rank(power))
        power = matmul(power, x)
    blocks = [kernels[k] - kernels[k - 1] for k in range(1, len(kernels))]
    return conjugate(blocks)


def orbit_point(parts, tag: str):
    """Integer point g * J * adj(g) of the orbit of Jordan type `parts`, with g
    drawn from a generator seeded by `tag`; the Jordan type is confirmed."""
    parts = tuple(parts)
    n = sum(parts)
    rng = random.Random(f"{tag}:{parts}")
    while True:
        g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if det(g):
            break
    x = matmul(matmul(g, jordan(parts)), adjugate(g))
    if jordan_type(x) != parts:
        raise AssertionError(f"orbit point of {parts} has type {jordan_type(x)}")
    return x


def sort_sign(seq):
    """(sorted tuple, sign of the sorting permutation) for distinct entries."""
    inversions = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
    return tuple(sorted(seq)), -1 if inversions % 2 else 1


class Point:
    """A square integer matrix with cached minors, for evaluating invariants
    and prefixed minor sums as sums of determinants."""

    def __init__(self, a):
        self.a = a
        self.n = len(a)
        self._minors: dict = {}
        self._charpoly = None

    def minor(self, rows, cols) -> int:
        key = (rows, cols)
        v = self._minors.get(key)
        if v is None:
            v = self._minors[key] = det([[self.a[r][c] for c in cols] for r in rows])
        return v

    def prefixed_sum(self, P, Q, p: int) -> int:
        """Sum over J of det(a[P+J, Q+J]), rows and columns in that order."""
        used = set(P) | set(Q)
        free = [v for v in range(self.n) if v not in used]
        total = 0
        for J in itertools.combinations(free, p - len(P)):
            rows, rs = sort_sign(P + J)
            cols, cs = sort_sign(Q + J)
            total += rs * cs * self.minor(rows, cols)
        return total

    def invariant(self, p: int) -> int:
        if self._charpoly is None:
            self._charpoly = charpoly(self.a)
        return (-1) ** p * self._charpoly[self.n - p]

    def family_values(self, i: int, p: int):
        """Values of the depth-i size-p prefixed sums (invariant t_p for i = 0)."""
        if i == 0:
            return [self.invariant(p)]
        return [self.prefixed_sum(P, Q, p) for P, Q in family(self.n, i, p)]


# -- the generator rule, as the method states it ------------------------------


def critical_size(parts, i: int) -> int:
    return sum(parts[:i]) - i + 1


def zero_space(n: int, i: int, p: int) -> bool:
    return i > min(p, n - p)


def admitted(parts, i: int) -> bool:
    if i == 1:
        return True
    prev = critical_size(parts, i - 1)
    return critical_size(parts, i) < prev + (prev - 1) // (i - 1)


def layer_dimension(n: int, i: int) -> int:
    return comb(n, i) ** 2 - comb(n, i - 1) ** 2


def minimal_spaces(parts):
    n = sum(parts)
    out = []
    for i in range(1, len(parts) + 1):
        p = critical_size(parts, i)
        if not zero_space(n, i, p) and admitted(parts, i):
            out.append((i, p))
    return out


def full_spaces(parts):
    n = sum(parts)
    return [
        (i, critical_size(parts, i))
        for i in range(1, len(parts) + 1)
        if not zero_space(n, i, critical_size(parts, i))
    ]


def excluded(parts):
    return [i for i in range(2, len(parts) + 1) if not admitted(parts, i)]


def family(n: int, i: int, p: int):
    """Sorted prefix pairs (P, Q) of length min(i, p), P-major lexicographic."""
    subsets = list(itertools.combinations(range(n), min(i, p)))
    return [(P, Q) for P in subsets for Q in subsets]


def partitions(n: int):
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(cap, rest), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return list(rec(n, n))


# -- polynomials --------------------------------------------------------------


def poly_add(acc: dict, f: dict, scale=1) -> None:
    for mon, c in f.items():
        v = acc.get(mon, 0) + scale * c
        if v:
            acc[mon] = v
        else:
            acc.pop(mon, None)


def poly_times_monomial(f: dict, mon: tuple) -> dict:
    return {tuple(sorted(m + mon)): c for m, c in f.items()}


@lru_cache(maxsize=None)
def minor_poly(n: int, rows: tuple, cols: tuple) -> dict:
    """Leibniz expansion of det(x[rows, cols]) in the generic matrix x."""
    out = {}
    for perm in itertools.permutations(range(len(rows))):
        _, sign = sort_sign(perm)
        mon = tuple(sorted(rows[k] * n + cols[perm[k]] for k in range(len(rows))))
        out[mon] = sign
    return out


def prefixed_sum_poly(n: int, P: tuple, Q: tuple, p: int) -> dict:
    used = set(P) | set(Q)
    free = [v for v in range(n) if v not in used]
    out: dict = {}
    for J in itertools.combinations(free, p - len(P)):
        rows, rs = sort_sign(P + J)
        cols, cs = sort_sign(Q + J)
        poly_add(out, minor_poly(n, rows, cols), rs * cs)
    return out


def monomial_from_records(n: int, records) -> tuple:
    """[[row, col, exponent], ...] with 1-based indices to a monomial."""
    return tuple(sorted(v for r, c, e in records for v in [(r - 1) * n + (c - 1)] * e))


def poly_from_records(n: int, records) -> dict:
    """A serialized polynomial, [{"coeff": "c", "monomial": [...]}, ...], as
    a dict from monomial to integer coefficient."""
    out: dict = {}
    for t in records:
        poly_add(out, {monomial_from_records(n, t["monomial"]): int(t["coeff"])})
    return out


def evaluate_records(point, records) -> int:
    """Value of a serialized polynomial at an integer matrix."""
    total = 0
    for term in records:
        v = int(term["coeff"])
        for r, c, e in term["monomial"]:
            v *= point[r - 1][c - 1] ** e
        total += v
    return total


def monomials(nvars: int, d: int):
    return itertools.combinations_with_replacement(range(nvars), d)


PRIME = (1 << 61) - 1


class ModSpan:
    """Reduced row echelon span of sparse vectors modulo a 61-bit prime.

    Only used to select layer representatives greedily; independence mod the
    prime implies independence over Q, and a spurious dependence would show
    as a mismatch, never as a false pass, because every comparison made with
    the selected polynomials is exact.
    """

    def __init__(self):
        self.rows: dict = {}

    def add(self, vec: dict) -> bool:
        v = {k: c % PRIME for k, c in vec.items() if c % PRIME}
        for k in [k for k in v if k in self.rows]:
            c = v.get(k)
            if not c:
                continue
            for k2, c2 in self.rows[k].items():
                nv = (v.get(k2, 0) - c * c2) % PRIME
                if nv:
                    v[k2] = nv
                else:
                    v.pop(k2, None)
        if not v:
            return False
        pivot = min(v)
        inv = pow(v[pivot], -1, PRIME)
        row = {k: c * inv % PRIME for k, c in v.items()}
        for other in self.rows.values():
            c = other.get(pivot)
            if c:
                for k2, c2 in row.items():
                    nv = (other.get(k2, 0) - c * c2) % PRIME
                    if nv:
                        other[k2] = nv
                    else:
                        other.pop(k2, None)
        self.rows[pivot] = row
        return True


@lru_cache(maxsize=None)
def layer_reps(n: int, i: int, p: int) -> tuple:
    """Members of the depth-i size-p family, in family order, that extend a
    basis of the depth-(i-1) span: the documented greedy layer selection."""
    span = ModSpan()
    for P, Q in family(n, i - 1, p):
        span.add(prefixed_sum_poly(n, P, Q, p))
    reps = []
    for P, Q in family(n, i, p):
        f = prefixed_sum_poly(n, P, Q, p)
        if f and span.add(f):
            reps.append(f)
    if len(reps) != layer_dimension(n, i):
        raise AssertionError(f"layer ({i},{p}) at n={n} has {len(reps)} representatives")
    return tuple(reps)


@lru_cache(maxsize=None)
def invariant_poly(n: int, p: int) -> dict:
    return prefixed_sum_poly(n, (), (), p)
