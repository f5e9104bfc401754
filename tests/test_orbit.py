import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitideals.linalg import TriangularBasis
from orbitideals.minors import minor_sum_basis, prefixed_minor_sum, principal_minor_sum
from orbitideals.orbit import (
    check_vanishing,
    jordan_matrix,
    kernel_dimensions,
    prefixed_sum_at_jordan,
    sample_orbit,
)
from orbitideals.partitions import Partition, partitions_of
from orbitideals.polyring import Polynomial, term_key


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def rank(m) -> int:
    """Reference rank over Q, by Gauss-Jordan elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    r = 0
    for c in range(len(a[0])):
        pivot = next((k for k in range(r, len(a)) if a[k][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for k in range(len(a)):
            if k != r and a[k][c]:
                f = a[k][c] / a[r][c]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
        r += 1
    return r


def reference_kernel_profile(m, upto: int) -> list[int]:
    """dim ker(m^k) for k = 1..upto, through the Fraction rank above."""
    n = len(m)
    power, dims = [[int(r == c) for c in range(n)] for r in range(n)], []
    for _ in range(upto):
        power = matmul(power, m)
        dims.append(n - rank(power))
    return dims


def expected_profile(mu: Partition) -> list[int]:
    conj = mu.conjugate()
    return [sum(conj[:k]) for k in range(1, len(conj) + 1)]


def test_jordan_matrix_examples():
    j = jordan_matrix(Partition((2, 1)))
    assert j == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    assert jordan_matrix(Partition((1, 1, 1))) == ((0, 0, 0),) * 3
    shift = jordan_matrix(Partition((4,)))
    assert all(shift[k][k + 1] == 1 for k in range(3))
    assert sum(map(sum, shift)) == 3


def test_jordan_kernel_profile():
    for n in range(1, 7):
        for mu in partitions_of(n):
            want = expected_profile(mu)
            assert kernel_dimensions(jordan_matrix(mu), len(want)) == want


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_kernel_dimensions_match_fraction_rank(m):
    assert kernel_dimensions(m, 3) == reference_kernel_profile(m, 3)


def test_sample_orbit_points():
    for n in range(1, 7):
        for mu in partitions_of(n):
            want = expected_profile(mu)
            for seed in range(3):
                s = sample_orbit(mu, seed)
                assert (s.jordan_type, s.seed) == (mu, seed)
                assert all(type(x) is int for row in s.matrix for x in row)
                assert reference_kernel_profile(s.matrix, len(want)) == want
                if n >= 3 and mu[0] > 1:
                    assert s.matrix != jordan_matrix(mu), (mu, seed)


def matrix_power(m, k: int):
    out = m
    for _ in range(k - 1):
        out = matmul(out, m)
    return out


def test_sample_orbit_examples():
    s = sample_orbit(Partition((1, 1, 1)), 5)
    assert s.matrix == ((0, 0, 0),) * 3

    s = sample_orbit(Partition((2, 1)), 3)
    assert rank(s.matrix) == 1
    assert not any(map(any, matmul(s.matrix, s.matrix)))

    s = sample_orbit(Partition((3,)), 11)
    assert [rank(matrix_power(s.matrix, k)) for k in (1, 2, 3)] == [2, 1, 0]


def test_sample_orbit_deterministic():
    a = sample_orbit(Partition((2, 2)), 42)
    b = sample_orbit(Partition((2, 2)), 42)
    assert a.matrix == b.matrix
    c = sample_orbit(Partition((2, 2)), 43)
    assert a.matrix != c.matrix
    assert len({a.matrix, b.matrix, c.matrix}) == 2  # points are hashable


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sample_orbit_nilpotent(seed):
    mu = Partition((2, 1, 1))
    s = sample_orbit(mu, seed)
    assert not any(map(any, matrix_power(s.matrix, mu.n)))


def test_check_vanishing_examples():
    assert check_vanishing(Partition((2, 1)), 1, 2) is None

    witness = check_vanishing(Partition((2, 1)), 1, 1)
    assert witness == ((1,), (2,))  # the entry x_12 itself
    P, Q = witness
    assert prefixed_minor_sum(3, P, Q, 1).evaluate(jordan_matrix(Partition((2, 1)))) != 0

    for mu in (Partition((3, 1)), Partition((2, 2)), Partition((4,))):
        for p in (1, 2, 4):
            assert check_vanishing(mu, 0, p) is None


def test_check_vanishing_validates_depth():
    with pytest.raises(ValueError):
        check_vanishing(Partition((2, 1)), 2, 2)  # 2 > min(2,1)


def test_invariants_vanish_on_all_small_orbits():
    for n in range(1, 5):
        for mu in partitions_of(n):
            point = sample_orbit(mu, 9).matrix
            for p in range(1, n + 1):
                assert principal_minor_sum(n, p).evaluate(point) == 0


def test_jordan_evaluator_matches_expansion():
    for n in range(1, 6):
        points = [(mu, jordan_matrix(mu)) for mu in partitions_of(n)]
        for p in range(1, n + 1):
            for i in range(0, p + 1):
                subsets = list(itertools.combinations(range(1, n + 1), i))
                for P in subsets:
                    for Q in subsets:
                        f = prefixed_minor_sum(n, P, Q, p)
                        for mu, j in points:
                            assert prefixed_sum_at_jordan(mu, P, Q, p) == f.evaluate(j), (mu, P, Q, p)


def test_jordan_evaluator_permuted_and_repeated_prefixes():
    mu = Partition((3, 2))
    j = jordan_matrix(mu)
    for P, Q in [((2, 1), (3, 2)), ((1, 4), (2, 5)), ((4, 1), (2, 5)), ((1, 1), (2, 3))]:
        for p in range(2, 6):
            assert prefixed_sum_at_jordan(mu, P, Q, p) == prefixed_minor_sum(5, P, Q, p).evaluate(j)


def test_sharpness_witnesses_reevaluate():
    for n in range(1, 7):
        for mu in partitions_of(n):
            j = jordan_matrix(mu)
            for i in range(1, len(mu) + 1):
                p = mu.critical_size(i) - 1
                if p < i:
                    continue
                witness = check_vanishing(mu, i, p)
                assert witness is not None, (mu, i, p)
                P, Q = witness
                assert len(P) == len(Q) == i
                assert prefixed_minor_sum(n, P, Q, p).evaluate(j) != 0, (mu, i, p)


def test_generic_point_agrees_with_jordan_verdict():
    for n in range(1, 6):
        for mu in partitions_of(n):
            x = sample_orbit(mu, n).matrix
            for p in range(1, n + 1):
                for i in range(0, min(p, n - p) + 1):
                    at_x = all(f.evaluate(x) == 0 for f in minor_sum_basis(n, i, p))
                    assert (check_vanishing(mu, i, p) is None) == at_x, (mu, i, p)


# -- GL_n-stability of the spaces, which the Jordan-point verdicts rest on ----


def root_derivation(f: Polynomial, a: int, b: int) -> dict:
    """D_ab f = sum_c x_bc df/dx_ac - sum_r x_ra df/dx_rb, the action of the
    root vector e_ab of gl_n on f (1-based a, b), as a term dict."""
    out: dict = {}

    def add(mon: dict, old, new, coeff):
        exps = dict(mon)
        e = exps.pop(old)
        if e > 1:
            exps[old] = e - 1
        exps[new] = exps.get(new, 0) + 1
        key = tuple(sorted(exps.items()))
        v = out.get(key, 0) + coeff * e
        if v:
            out[key] = v
        else:
            out.pop(key)

    for mon, coeff in f.terms.items():
        for (r, c), _ in mon:
            if r == a:
                add(mon, (a, c), (b, c), coeff)
            if c == b:
                add(mon, (r, b), (r, a), -coeff)
    return out


def unstable_images(n: int, basis) -> int:
    """How many images D_ab g, over g in `basis` and a != b, leave its span."""
    columns = lambda terms: {term_key(n, m): c for m, c in terms.items()}
    span = TriangularBasis()
    for g in basis:
        span.insert(columns(g.terms))
    flagged = 0
    for g in basis:
        for a, b in itertools.permutations(range(1, n + 1), 2):
            residual, _ = span.reduce(columns(root_derivation(g, a, b)))
            flagged += bool(residual)
    return flagged


def test_root_derivation_of_a_variable():
    # D_12 x_11 = x_21 and D_12 x_22 = -x_21
    x11 = Polynomial.variable(2, 1, 1)
    x22 = Polynomial.variable(2, 2, 2)
    assert root_derivation(x11, 1, 2) == {(((2, 1), 1),): 1}
    assert root_derivation(x22, 1, 2) == {(((2, 1), 1),): -1}
    assert root_derivation(x11 + x22, 1, 2) == {}


def test_spaces_are_gl_stable():
    for n in range(1, 5):
        for p in range(1, n + 1):
            for i in range(0, p + 1):
                assert unstable_images(n, minor_sum_basis(n, i, p)) == 0, (n, i, p)


def test_gl_stability_check_detects_a_dropped_element():
    assert unstable_images(4, minor_sum_basis(4, 1, 2)[1:]) == 6
