"""Vanishing of the generator spaces on nilpotent orbit closures, decided
exactly at the Jordan matrix.

Each space V(i,p), the span of the prefixed minor sums (P,J|Q,J) over all
prefixes of length i, is stable under conjugation by GL_n: it is the image
of the equivariant map from the i-th exterior powers of E and E* (Weyman,
Invent. Math. 98, 1989).  For X = g J g^-1 and u in V, u(X) = (g^-1 . u)(J)
with g^-1 . u again in V.  So V vanishes on the orbit closure of mu iff
every spanning sum vanishes at the single point J_mu, and one nonzero value
there is a proof of non-vanishing.

The values at J_mu need no polynomial: J_mu has a 1 at (r, r+1) for every r
that is not the last index of its block, so every square submatrix is a
partial permutation matrix, and because the successor map r -> r+1 is
increasing, the minor (R|C) is 1 when it maps R onto C and 0 otherwise.
So `jordan_values` walks only those minors, one per subset R of the
successor map's domain, and gives each to the sums (P,J|Q,J) with J inside
R and succ(R), P = R - J, Q = succ(R) - J: the one nonzero term of each, as
J is forced, the indices the successor map passes from P up to Q.

`sample_orbit` gives integer points g J_mu g^-1 away from the Jordan form.
No verdict rests on them: they are the generic-point reference that the
tests compare the Jordan-point verdicts with.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .minors import sort_with_sign
from .partitions import Partition, full_schedule


@lru_cache(maxsize=None)
def _successors(mu: Partition) -> dict[int, int]:
    """r -> r+1 (1-based, r increasing) for each r not last in its block; shared."""
    succ = {}
    offset = 0
    for part in mu:
        for k in range(offset + 1, offset + part):
            succ[k] = k + 1
        offset += part
    return succ


def jordan_matrix(mu: Partition) -> tuple[tuple[int, ...], ...]:
    """Block-diagonal nilpotent matrix with upper-shift blocks of the part
    sizes: a 1 at (r, r+1) for every successor pair."""
    succ = _successors(mu)
    indices = range(1, mu.n + 1)
    return tuple(tuple(int(succ.get(r) == c) for c in indices) for r in indices)


def _matmul(a, b) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def _unit_lower_inverse(low) -> list[list[int]]:
    """Inverse of a unit lower triangular integer matrix, by forward
    substitution; it is again unit lower triangular and integral."""
    n = len(low)
    inv = [[int(r == c) for c in range(n)] for r in range(n)]
    for r in range(n):
        for c in range(r):
            inv[r][c] = -sum(low[r][k] * inv[k][c] for k in range(c, r))
    return inv


def _rank(m) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination: every
    entry stays a minor of `m`, so each division by the previous pivot is exact."""
    a = [list(row) for row in m]
    rank, prev = 0, 1
    for c in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        lead = a[rank][c]
        for r in range(rank + 1, len(a)):
            a[r] = [(lead * x - a[r][c] * y) // prev for x, y in zip(a[r], a[rank])]
        prev = lead
        rank += 1
    return rank


def kernel_dimensions(m, upto: int) -> list[int]:
    """dim ker(m^k) for k = 1..upto, for a square integer matrix m."""
    n = len(m)
    power = [[int(r == c) for c in range(n)] for r in range(n)]
    dims = []
    for _ in range(upto):
        power = _matmul(power, m)
        dims.append(n - _rank(power))
    return dims


@dataclass(frozen=True)
class OrbitSample:
    """One integer point of the orbit of a nilpotent Jordan type."""

    matrix: tuple[tuple[int, ...], ...]
    jordan_type: Partition
    seed: int


def sample_orbit(mu: Partition, seed: int) -> OrbitSample:
    """The point g J_mu g^-1 for g = L R, where L and R are seeded unit lower
    and unit upper triangular matrices with entries in -2..2.  Then
    g^-1 = R^-1 L^-1 is integral, so every seed gives a point; its kernel
    profile, which fixes the Jordan type, is checked.

    Nothing in the package calls it: the tests use it as a generic-point
    reference for the Jordan-point verdicts, and `perfbench/tracer.py`
    wraps it by name."""
    n = mu.n
    rng = random.Random(seed)

    def unit_lower():
        return [[rng.randint(-2, 2) if c < r else int(r == c) for c in range(n)] for r in range(n)]

    low, up_t = unit_lower(), unit_lower()
    g = _matmul(low, _transpose(up_t))
    g_inv = _matmul(_transpose(_unit_lower_inverse(up_t)), _unit_lower_inverse(low))
    point = _matmul(_matmul(g, jordan_matrix(mu)), g_inv)
    expected = list(itertools.accumulate(mu.conjugate()))
    if kernel_dimensions(point, len(expected)) != expected:
        raise ArithmeticError(f"conjugate of {mu} has the wrong kernel profile")
    return OrbitSample(tuple(map(tuple, point)), mu, seed)


def jordan_values(mu: Partition, i: int, p: int) -> dict:
    """{(P, Q): value, 1 or -1} over the sorted depth-i pairs whose size-p
    sum `prefixed_minor_sum(n, P, Q, p)` is nonzero at J_mu."""
    succ = _successors(mu)
    values = {}
    for R in itertools.combinations(succ, p):
        C = tuple(map(succ.get, R))
        for J in itertools.combinations([r for r in R if r in C], p - i):
            P, Q = (tuple(v for v in S if v not in J) for S in (R, C))
            values[P, Q] = sort_with_sign(P + J)[1] * sort_with_sign(Q + J)[1]
    return values


def check_vanishing(mu: Partition, i: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Decide whether the depth-i size-p space vanishes on the orbit closure
    of mu from the values of its sorted spanning pairs (P, Q) at J_mu.

    Returns None when the space vanishes, and otherwise the witness: the
    first pair (P, Q), in `prefix_pairs` order, whose sum is nonzero at
    J_mu.  For depths in the nonzero range the space vanishes iff
    p >= mu.critical_size(i).
    """
    n = mu.n
    if not (1 <= p <= n and 0 <= i <= min(p, n - p)):
        raise ValueError(f"need a size p in 1..{n} and a depth in 0..min(p, {n} - p)")
    return min(jordan_values(mu, i, p), default=None)


def verify_vanishing(mu: Partition) -> dict:
    """The JSON-ready `vanishing` and `sharpness` entries of a `verify`
    report: every layer of `full_schedule(mu)` must vanish on the orbit
    closure, and every depth i with critical_size(i) > i must not vanish one
    size below it, where the witness pair of `check_vanishing` is printed."""
    vanishing = []
    for i, p in full_schedule(mu):
        vanishing.append({"i": i, "p": p, "all_zero": check_vanishing(mu, i, p) is None, "expected": True})
    sharpness = []
    for i in range(1, len(mu) + 1):
        ci = mu.critical_size(i)
        if ci > i:
            witness = check_vanishing(mu, i, ci - 1)
            entry = {"i": i, "p": ci - 1, "all_zero": witness is None, "expected": False}
            if witness is not None:
                entry["witness"] = {"rows": witness[0], "cols": witness[1]}
            sharpness.append(entry)
    return {"vanishing": vanishing, "sharpness": sharpness}
