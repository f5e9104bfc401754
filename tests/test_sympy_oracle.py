"""Differential tests against sympy, an independent computer algebra system:
determinants against `minor`, Groebner-basis membership against
`ideal_contains`, and a characteristic-polynomial coefficient against the
value of `prefixed_minor_sum` at an integer matrix.  sympy is a test extra;
without it the module is skipped."""

import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from orbitideals.membership import MEMBER, NON_MEMBER, ideal_contains, scheduled_generators
from orbitideals.minors import minor, prefixed_minor_sum
from orbitideals.partitions import partitions_of
from orbitideals.schur import layer_basis

sympy = pytest.importorskip("sympy")

LARGE = os.environ.get("ORBIT_IDEALS_LARGE") == "1"


def variables(n):
    return sympy.Matrix(n, n, lambda r, c: sympy.Symbol(f"x{r + 1}{c + 1}"))


def to_sympy(poly, x):
    return sympy.Add(*(c * sympy.Mul(*(x[r - 1, col - 1] ** e for (r, col), e in mon)) for mon, c in poly.terms.items()))


def test_minor_matches_sympy_det():
    count = 0
    for n in range(1, 5):
        x = variables(n)
        for size in range(1, n + 1):
            for rows in itertools.combinations(range(1, n + 1), size):
                for cols in itertools.combinations(range(1, n + 1), size):
                    det = x.extract([r - 1 for r in rows], [c - 1 for c in cols]).det(method="berkowitz")
                    assert sympy.expand(det - to_sympy(minor(n, rows, cols), x)) == 0, (rows, cols)
                    count += 1
    assert count == 1 + 5 + 19 + 69


def test_membership_matches_sympy_groebner():
    """Every layer_basis(n, i, p) element against the ideal of the minimal
    schedule of every mu of n: n = 3 (57 cases), and n = 4 (345 cases,
    about 5 s) with ORBIT_IDEALS_LARGE=1."""
    cases = 0
    for n in (3, 4) if LARGE else (3,):
        x = variables(n)
        candidates = [c for p in range(1, n + 1) for i in range(p + 1) for c in layer_basis(n, i, p)]
        for mu in partitions_of(n):
            _, gens = scheduled_generators(mu)
            basis = sympy.groebner([to_sympy(g, x) for g in gens], *x, order="grevlex")
            for c in candidates:
                expected = MEMBER if basis.contains(to_sympy(c, x)) else NON_MEMBER
                assert ideal_contains(c, gens)["status"] == expected, (mu, c)
                cases += 1
    assert cases == (57 + 345 if LARGE else 57)


@st.composite
def prefixed_sum_cases(draw):
    """An integer n x n matrix with entries in -3..3 (n <= 5), row and column
    prefixes of one length i, unsorted and possibly repeating, and a size
    p >= 1 with i <= p <= n."""
    n = draw(st.integers(1, 5))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    i = draw(st.integers(0, n))
    P, Q = (draw(st.lists(st.integers(1, n), min_size=i, max_size=i)) for _ in "PQ")
    return n, A, P, Q, draw(st.integers(max(i, 1), n))


@settings(max_examples=150, deadline=None)
@given(prefixed_sum_cases())
def test_prefixed_minor_sum_is_a_characteristic_coefficient(case):
    """ROADMAP item 3's identity: with F the indices outside P and Q in
    increasing order, the sum of (P,J|Q,J) over J of size p - i, at A, is
    the coefficient of t^(|F| - (p - i)) in det(A[P+F, Q+F] + t*I_F)."""
    n, A, P, Q, p = case
    i = len(P)
    F = [v for v in range(1, n + 1) if v not in P and v not in Q]
    t = sympy.Symbol("t")
    # rows P then F, columns Q then F, and t on the F x F diagonal
    M = sympy.Matrix(
        [[A[r - 1][c - 1] + (t if a == b >= i else 0) for b, c in enumerate(Q + F)] for a, r in enumerate(P + F)]
    )
    det = sympy.Poly(M.det(method="berkowitz"), t)
    power = len(F) - (p - i)
    expected = det.coeff_monomial(t**power) if power >= 0 else 0
    assert prefixed_minor_sum(n, P, Q, p).evaluate(A) == expected, case
