from fractions import Fraction
from math import comb

import pytest

from orbitideals.linalg import TriangularBasis
from orbitideals.minors import family_rank, minor_sum_family
from orbitideals.polyring import term_key
from orbitideals.schur import dimension_table, layer_basis, layer_dimension


def test_layer_dimension_values():
    assert layer_dimension(3, 1) == 8
    assert layer_dimension(7, 0) == 1
    assert layer_dimension(4, 2) == 20
    assert layer_dimension(4, 3) == 0
    assert layer_dimension(2, 1) == 3
    with pytest.raises(ValueError):
        layer_dimension(3, -1)


def test_layer_dimension_telescopes():
    for n in range(1, 13):
        for m in range(n // 2 + 1):
            assert sum(layer_dimension(n, j) for j in range(m + 1)) == comb(n, m) ** 2


def test_dimension_table():
    assert dimension_table(4) == (1, 15, 20, 0, 0)


def test_rank_steps_equal_layer_dimensions():
    # the closed form is derived; cross-check against exact elimination
    for n in (2, 3, 4):
        for p in range(1, n + 1):
            for i in range(1, min(p, n - p) + 1):
                step = family_rank(n, i, p) - family_rank(n, i - 1, p)
                assert step == layer_dimension(n, i)
            # past the stable depth the span stops growing
            for i in range(min(p, n - p) + 1, n + 1):
                assert family_rank(n, i, p) == family_rank(n, i - 1, p)


def test_layer_basis_examples():
    assert len(layer_basis(2, 1, 1)) == 3
    assert len(layer_basis(4, 2, 2)) == 20
    assert len(layer_basis(3, 1, 2)) == 8
    # out of the nonzero range: empty
    assert layer_basis(4, 2, 3) == ()
    assert layer_basis(3, 2, 2) == ()
    assert layer_basis(3, 0, 2) == ()
    with pytest.raises(ValueError):
        layer_basis(3, 1, 4)


def test_layer_basis_extends_previous_span():
    for n, i, p in ((2, 1, 1), (3, 1, 2), (4, 2, 2), (4, 1, 3)):
        basis = TriangularBasis(lambda mon, n=n: term_key(n, mon))
        for _, poly in minor_sum_family(n, i - 1, p):
            if not poly.is_zero():
                basis.insert({m: Fraction(c) for m, c in poly.terms.items()})
        start = basis.rank
        for poly in layer_basis(n, i, p):
            assert basis.insert(poly.terms)
        assert basis.rank == start + layer_dimension(n, i)
        assert basis.rank == comb(n, min(i, p, n - p)) ** 2


def two_family_layer(n, i, p):
    """The layer representatives as first selected: insert the whole
    depth-(i-1) family, then keep the depth-i members that raise the rank."""
    if i < 1 or i > min(p, n - p):
        return ()
    basis = TriangularBasis(lambda mon: term_key(n, mon))
    for _, poly in minor_sum_family(n, i - 1, p):
        if not poly.is_zero():
            basis.insert(poly.terms)
    return tuple(
        poly for _, poly in minor_sum_family(n, i, p) if not poly.is_zero() and basis.insert(poly.terms)
    )


def test_layer_basis_matches_two_family_greedy():
    for n in range(1, 6):
        for p in range(1, n + 1):
            for i in range(0, n + 1):
                assert layer_basis(n, i, p) == two_family_layer(n, i, p), (n, i, p)
