import itertools
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from orbitideals.minors import (
    family_rank,
    minor,
    minor_sum_basis,
    minor_sum_family,
    prefix_pairs,
    prefixed_minor_sum,
    principal_minor_sum,
    signed_minors,
    sort_with_sign,
    tag_restriction,
    tag_sum,
    tag_weight,
)
from orbitideals.polyring import Polynomial, mon_weight


def x(n, r, c):
    return Polynomial.variable(n, r, c)


def test_sort_with_sign():
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    with pytest.raises(ValueError, match="repeated entry 1"):
        sort_with_sign((2, 1, 1))


def test_minor_examples():
    assert minor(2, (1,), (2,)) == x(2, 1, 2)
    assert minor(2, (1, 2), (1, 2)) == x(2, 1, 1) * x(2, 2, 2) - x(2, 1, 2) * x(2, 2, 1)
    full3 = minor(3, (1, 2, 3), (1, 2, 3))
    assert len(full3.terms) == 6
    assert full3.degree == 3


@given(st.integers(min_value=1, max_value=4))
def test_minor_term_count_is_factorial(r):
    m = minor(4, tuple(range(1, r + 1)), tuple(range(1, r + 1)))
    assert len(m.terms) == factorial(r)
    assert all(abs(c) == 1 for c in m.terms.values())


def leibniz(n, rows, cols):
    """The minor as the signed sum over permutations, one term each."""
    terms = {}
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        mon = tuple(((r, cols[k]), 1) for r, k in zip(rows, perm))
        terms[mon] = -1 if inversions % 2 else 1
    return Polynomial(n, terms)


def test_minor_is_the_leibniz_expansion():
    # past the sympy oracle's n <= 4: every size-5 and size-6 minor of n = 6,
    # from a cold cache and again after every smaller minor is cached
    n = 6
    sets = {r: list(itertools.combinations(range(1, n + 1), r)) for r in range(1, n + 1)}
    large = [(R, C) for r in (5, 6) for R in sets[r] for C in sets[r]]
    minor.cache_clear()
    for R, C in large:
        assert minor(n, R, C) == leibniz(n, R, C), (R, C)
    minor.cache_clear()
    for r in range(1, 5):
        for R in sets[r]:
            for C in sets[r]:
                minor(n, R, C)
    for R, C in large:
        assert minor(n, R, C) == leibniz(n, R, C), (R, C)


def test_minor_validation():
    with pytest.raises(ValueError):
        minor(2, (1, 2), (1,))
    with pytest.raises(ValueError):
        minor(2, (2, 1), (1, 2))
    with pytest.raises(ValueError):
        minor(2, (1, 3), (1, 2))
    with pytest.raises(ValueError):
        minor(2, (), ())


def test_minor_alternating_in_rows():
    # determinant with swapped rows is the negation: check via evaluation
    m = minor(3, (1, 2), (1, 3))
    grid = [[7, -2, 3], [1, 5, -4], [2, 0, 6]]
    swapped = [grid[1], grid[0], grid[2]]
    assert m.evaluate(grid) == -m.evaluate(swapped)


def test_principal_minor_sum_examples():
    assert principal_minor_sum(3, 1) == x(3, 1, 1) + x(3, 2, 2) + x(3, 3, 3)
    assert principal_minor_sum(3, 3) == minor(3, (1, 2, 3), (1, 2, 3))
    assert principal_minor_sum(2, 2) == minor(2, (1, 2), (1, 2))
    with pytest.raises(ValueError):
        principal_minor_sum(3, 0)
    with pytest.raises(ValueError):
        principal_minor_sum(3, 4)


def test_principal_minor_sum_char_poly_coefficient():
    # at a diagonal matrix this is the elementary symmetric polynomial
    from math import prod

    values = [3, -2, 5]
    diag = [[values[r] if r == c else 0 for c in range(3)] for r in range(3)]
    for p in range(1, 4):
        expected = sum(prod(combo) for combo in itertools.combinations(values, p))
        assert principal_minor_sum(3, p).evaluate(diag) == expected


def test_prefixed_minor_sum_examples():
    for p in range(1, 4):
        assert prefixed_minor_sum(3, (), (), p) == principal_minor_sum(3, p)
    assert prefixed_minor_sum(2, (1,), (2,), 1) == x(2, 1, 2)
    expected = minor(3, (1, 2), (1, 2)) + minor(3, (1, 3), (1, 3))
    assert prefixed_minor_sum(3, (1,), (1,), 2) == expected


def test_prefixed_minor_sum_matches_polynomial_sum():
    # reference: the sum built with Polynomial arithmetic, one minor at a time
    def reference(n, P, Q, size):
        total = Polynomial.zero(n)
        free = [v for v in range(1, n + 1) if v not in P + Q]
        for J in itertools.combinations(free, size - len(P)):
            rows, rsign = sort_with_sign(P + J)
            cols, csign = sort_with_sign(Q + J)
            total = total + minor(n, rows, cols) * (rsign * csign)
        return total

    for n in range(1, 5):
        for p in range(1, n + 1):
            for i in range(0, p + 1):
                for P in itertools.permutations(range(1, n + 1), i):
                    for Q in itertools.combinations(range(1, n + 1), i):
                        assert prefixed_minor_sum(n, P, Q, p) == reference(n, P, Q, p), (n, P, Q, p)
    for n in (5, 6):
        for p in range(1, n + 1):
            assert principal_minor_sum(n, p) == reference(n, (), (), p)


def test_prefixed_minor_sum_empty_sum_is_zero():
    # no room for J: sum over an empty index family
    assert prefixed_minor_sum(3, (1, 2), (2, 3), 3).is_zero()
    assert prefixed_minor_sum(2, (1,), (2,), 2).is_zero()


def test_prefixed_minor_sum_degenerate_prefixes():
    assert prefixed_minor_sum(4, (1, 1), (2, 3), 3).is_zero()
    assert prefixed_minor_sum(4, (2, 3), (1, 1), 3).is_zero()


def test_prefixed_minor_sum_antisymmetry():
    for n, size in ((4, 2), (4, 3), (3, 2)):
        a = prefixed_minor_sum(n, (1, 2), (2, 3), size)
        b = prefixed_minor_sum(n, (2, 1), (2, 3), size)
        c = prefixed_minor_sum(n, (1, 2), (3, 2), size)
        assert b == -1 * a
        assert c == -1 * a


def test_prefixed_minor_sum_validation():
    with pytest.raises(ValueError):
        prefixed_minor_sum(3, (1,), (1, 2), 2)
    with pytest.raises(ValueError):
        prefixed_minor_sum(3, (1, 2), (1, 3), 1)  # prefix longer than size
    with pytest.raises(ValueError):
        prefixed_minor_sum(3, (4,), (1,), 2)
    for size in (0, 4):  # a size lies in 1..n; size 0 used to crash inside `minor`
        with pytest.raises(ValueError):
            prefixed_minor_sum(3, (), (), size)


def test_prefix_pairs_and_signed_minors():
    assert list(prefix_pairs(2, 1)) == [((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((2,), (2,))]
    assert list(prefix_pairs(3, 0)) == [((), ())]
    assert len(list(prefix_pairs(4, 2))) == comb(4, 2) ** 2
    # (2,J | 1,J) for J in {3}, {4}: sorting (2,3) is even, (1,3) is even
    assert list(signed_minors(4, (2,), (1,), 2)) == [((2, 3), (1, 3), 1), ((2, 4), (1, 4), 1)]
    assert list(signed_minors(4, (3,), (1,), 2)) == [((2, 3), (1, 2), -1), ((3, 4), (1, 4), 1)]
    assert list(signed_minors(4, (1, 1), (2, 3), 3)) == []  # a repeated prefix entry gives no term


def test_basis_cardinalities():
    assert len(minor_sum_basis(3, 1, 1)) == 9
    assert len(minor_sum_basis(4, 2, 2)) == 36
    assert len(minor_sum_basis(3, 1, 2)) == 9
    assert len(minor_sum_basis(3, 0, 2)) == 1


def test_family_rank_dimension_law_small():
    for n in (2, 3):
        for p in range(1, n + 1):
            for i in range(0, n + 1):
                assert family_rank(n, i, p) == comb(n, min(i, p, n - p)) ** 2


def test_nesting_of_spans():
    # every shallower-prefix element lies in the span of the deeper family
    from fractions import Fraction

    from orbitideals.linalg import TriangularBasis
    from orbitideals.polyring import pack

    for n, i, p in ((3, 1, 2), (4, 1, 2), (4, 2, 3), (4, 2, 2)):
        deep = TriangularBasis()
        for _, poly in minor_sum_family(n, i, p):
            if not poly.is_zero():
                deep.insert({pack(n, m, p): Fraction(c) for m, c in poly.terms.items()})
        for _, poly in minor_sum_family(n, i - 1, p):
            if not poly.is_zero():
                assert deep.contains({pack(n, m, p): c for m, c in poly.terms.items()})


def test_family_prefix_cap():
    # prefixes longer than the minor size stabilize instead of collapsing
    assert family_rank(4, 4, 1) == 16
    assert family_rank(2, 2, 1) == 4
    assert [len(minor_sum_basis(3, i, 3)) for i in range(0, 4)] == [1, 1, 1, 1]


def test_prefixes_past_the_minor_size_share_one_elimination():
    # a prefix longer than the minor size names the family of length `size`,
    # so a `dims` sweep eliminates each distinct family once, and
    # `minor_sum_basis` reuses the elimination of `family_rank`
    from orbitideals.minors import _kept_pairs

    _kept_pairs.cache_clear()
    n = 4
    for p in range(1, n + 1):
        for i in range(n + 1):
            family_rank(n, i, p)
    distinct = sum(p + 1 for p in range(1, n + 1))  # lengths 0..p at size p
    assert _kept_pairs.cache_info().misses == distinct
    minor_sum_basis.cache_clear()
    assert len(minor_sum_basis(n, n, 2)) == family_rank(n, 2, 2)
    assert _kept_pairs.cache_info().misses == distinct


def test_tag_weight_and_restriction_match_the_expansion():
    """For every tag (P, Q, p) of n <= 6, every depth and size: each term of
    the expanded sum has the weight e_P - e_Q that `tag_weight` reads off
    the tag, and the closed form `tag_restriction` is the sum of the terms
    in the x_rr alone, taken here from the expansion."""
    tags = 0
    for n in range(1, 7):
        for i in range(n + 1):
            for P, Q in prefix_pairs(n, i):
                for p in range(max(i, 1), n + 1):
                    tag = (P, Q, p)
                    f = tag_sum(n, tag)
                    w = tag_weight(n, tag)
                    assert w == tuple(int(r in P) - int(r in Q) for r in range(1, n + 1))
                    assert all(mon_weight(n, mon) == w for mon in f.terms), tag
                    diagonal = {mon: c for mon, c in f.terms.items() if all(r == col for (r, col), _ in mon)}
                    assert tag_restriction(n, tag) == Polynomial(n, diagonal), (n, tag)
                    tags += 1
    assert tags == 4847
    tag_sum.cache_clear()
