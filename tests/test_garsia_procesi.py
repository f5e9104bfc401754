"""The minimal schedule, restricted to the diagonal, gives the Garsia-Procesi
Hilbert function.

Setting x_rc = 0 for r != c is a ring map rho.  rho(I(O_mu closure)) is the
ideal of the scheme O_mu closure meet the diagonal (de Concini-Procesi,
Invent. Math. 64, 1981; Tanisaki, Tohoku Math. J. 34, 1982), whose quotient
is the Garsia-Procesi ring R_{mu'}.  Its Hilbert series satisfies
F_lam(q) = sum_k q^(k-1) F_{lam - e_k}(q), F of one box = 1 (Garsia and
Procesi, Adv. Math. 94, 1992), at lam = mu'.  If the schedule generates
I(O_mu closure), the restricted generators give exactly this Hilbert
function.

The check ranks a Macaulay matrix degree by degree.  On purpose it shares no
code with the membership oracle apart from `TriangularBasis`: monomials are
exponent vectors over x_11..x_nn, enumerated here.

Run with ORBIT_IDEALS_LARGE=1 to add n = 6, every degree up to the first
zero one included (there (6), the coinvariants up to degree 16, takes about
14 s), and n = 7 up to the largest generator degree + 1 (about 10 s in all;
the full range of (7) reaches degree 22, in 376 740 monomials).
"""

import itertools
import os
from functools import lru_cache
from math import factorial, prod

from orbitideals.linalg import TriangularBasis
from orbitideals.membership import scheduled_generators
from orbitideals.minors import prefixed_minor_sum
from orbitideals.partitions import Partition, partitions_of

LARGE = os.environ.get("ORBIT_IDEALS_LARGE") == "1"


@lru_cache(maxsize=None)
def garsia_procesi(lam: tuple) -> tuple:
    """Coefficients of F_lam(q), constant term first."""
    if sum(lam) <= 1:
        return (1,)
    out: list[int] = []
    for k in range(len(lam)):
        smaller = sorted(lam[:k] + (lam[k] - 1,) + lam[k + 1 :], reverse=True)
        for d, c in enumerate(garsia_procesi(tuple(x for x in smaller if x)), start=k):
            out += [0] * (d + 1 - len(out))
            out[d] += c
    return tuple(out)


def conjugate(parts) -> tuple:
    return tuple(sum(1 for x in parts if x >= j) for j in range(1, parts[0] + 1))


def diagonal_monomials(n: int, d: int) -> list[tuple]:
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        e = [0] * n
        for k in combo:
            e[k] += 1
        out.append(tuple(e))
    return out


def restricted(n: int, gens) -> list[dict]:
    """rho(g) of each generator as {exponent vector: coeff}; zeros dropped."""
    out = []
    for g in gens:
        terms = {}
        for mon, c in g.terms.items():
            if all(r == col for (r, col), _ in mon):
                e = [0] * n
                for (r, _), x in mon:
                    e[r - 1] = x
                terms[tuple(e)] = c
        if terms:
            out.append(terms)
    return out


def hilbert_value(n: int, gens: list[dict], d: int) -> int:
    """dim of the degree-d part of Q[x_11..x_nn] / (gens)."""
    columns = diagonal_monomials(n, d)
    index = {m: k for k, m in enumerate(columns)}
    basis = TriangularBasis()
    # generators of higher degree go in first: for (5) this is nine times
    # faster than the schedule's order
    for e, g in sorted(((sum(next(iter(g))), g) for g in gens), key=lambda t: -t[0]):
        if e > d:
            continue
        for m in diagonal_monomials(n, d - e):
            basis.insert({index[tuple(a + b for a, b in zip(mon, m))]: c for mon, c in g.items()})
    return len(columns) - basis.rank


def test_recursion_conventions():
    for n in range(1, 7):
        q_factorial = (1,)
        for k in range(2, n + 1):  # times [k]_q = 1 + q + ... + q^(k-1)
            a = q_factorial
            q_factorial = tuple(sum(a[max(0, j - k + 1) : j + 1]) for j in range(len(a) + k - 1))
        assert garsia_procesi((1,) * n) == q_factorial  # mu = (n)
        assert garsia_procesi((n,)) == (1,)  # mu = (1^n)
        for mu in partitions_of(n):
            lam = conjugate(mu)
            assert sum(garsia_procesi(lam)) == factorial(n) // prod(factorial(x) for x in lam)


def expanded_generators(mu: Partition):
    """The labels and the expanded sums of the scheduled generator tags."""
    labels, tags = scheduled_generators(mu)
    return labels, [prefixed_minor_sum(mu.n, *tag) for tag in tags]


def check_partition(mu: Partition, capped: bool = False):
    n = mu.n
    _, gens = expanded_generators(mu)
    rho = restricted(n, gens)
    want = garsia_procesi(conjugate(mu))
    top = len(want)  # the first degree where the quotient is zero
    if capped:
        top = min(top, max(g.degree for g in gens) + 1)
    got = tuple(hilbert_value(n, rho, d) for d in range(top + 1))
    assert got == (want + (0,))[: top + 1], (mu, got, want)


def test_schedule_restricts_to_garsia_procesi():
    for n in range(1, 7 if LARGE else 6):
        for mu in partitions_of(n):
            check_partition(mu)
    if LARGE:
        for mu in partitions_of(7):
            check_partition(mu, capped=True)


def test_every_scheduled_piece_is_needed_on_the_diagonal():
    """Dropping one t_p, or every generator of one U_(i,p), enlarges the
    restricted quotient in degree p: rho(piece) is outside (rho(others)),
    so the piece is outside (others) as well."""
    for n in range(1, 6):
        for mu in partitions_of(n):
            labels, gens = expanded_generators(mu)
            pieces: dict[str, list] = {}
            for label, g in zip(labels, gens):
                pieces.setdefault(label.split("[")[0], []).append(g)
            for name, piece in pieces.items():
                p = piece[0].degree
                others = [g for g in gens if not any(g is h for h in piece)]
                full = hilbert_value(n, restricted(n, gens), p)
                dropped = hilbert_value(n, restricted(n, others), p)
                assert dropped > full, (mu, name)
