import os
from fractions import Fraction
from math import comb

import pytest

from orbitideals import minors
from orbitideals.linalg import TriangularBasis
from orbitideals.minors import (
    family_rank,
    minor,
    minor_sum_basis,
    minor_sum_family,
    prefixed_minor_sum,
    principal_minor_sum,
    tag_sum,
)
from orbitideals.polyring import pack, raising_derivation
from orbitideals.schur import (
    dimension_table,
    highest_weight_tag,
    is_highest_weight,
    layer_basis,
    layer_dimension,
    layer_generators,
    layer_tags,
)


def highest_weight_vector(n, k, p):
    return tag_sum(n, highest_weight_tag(n, k, p))

LARGE = os.environ.get("ORBIT_IDEALS_LARGE") == "1"


def columns(poly):
    """The terms of poly on `pack` columns, as TriangularBasis takes them."""
    return {pack(poly.n, m, poly.degree): c for m, c in poly.terms.items()}


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


def expanded_greedy(n, i, p):
    """The members of `minor_sum_family` that raise the rank, decided by
    elimination on their expanded terms."""
    basis = TriangularBasis()
    return tuple(poly for _, poly in minor_sum_family(n, i, p) if basis.insert(columns(poly)))


def test_sign_vectors_decide_as_the_expansion_does():
    # distinct minors share no monomial, so the greedy choice on sign vectors
    # over the minors is the greedy choice on expanded terms
    for n in range(1, 6 if LARGE else 5):
        for p in range(1, n + 1):
            for i in range(0, n + 1):
                kept = expanded_greedy(n, i, p)
                assert minor_sum_basis(n, i, p) == kept, (n, i, p)
                assert family_rank(n, i, p) == len(kept), (n, i, p)


def test_layer_basis_examples():
    assert len(layer_basis(2, 1, 1)) == 3
    assert len(layer_basis(4, 2, 2)) == 20
    assert len(layer_basis(3, 1, 2)) == 8
    # out of the nonzero range: empty
    assert layer_basis(4, 2, 3) == ()
    assert layer_basis(3, 2, 2) == ()
    # depth 0 is the invariant
    assert layer_basis(3, 0, 2) == (principal_minor_sum(3, 2),)
    with pytest.raises(ValueError):
        layer_basis(3, 1, 4)


def test_layer_basis_extends_previous_span():
    for n, i, p in ((2, 1, 1), (3, 1, 2), (4, 2, 2), (4, 1, 3)):
        basis = TriangularBasis()
        for _, poly in minor_sum_family(n, i - 1, p):
            if not poly.is_zero():
                basis.insert({pack(n, m, p): Fraction(c) for m, c in poly.terms.items()})
        start = basis.rank
        for poly in layer_basis(n, i, p):
            assert basis.insert(columns(poly))
        assert basis.rank == start + layer_dimension(n, i)
        assert basis.rank == comb(n, min(i, p, n - p)) ** 2


def test_layers_up_to_depth_i_are_a_basis_of_the_depth_i_span():
    # membership --rel1 spans V(i,p) by the layers of depth 0..i at size p;
    # the expanded greedy basis must add no rank on top of them
    for n in range(1, 6):
        for p in range(1, n + 1):
            for i in range(0, n + 1):
                span = [g for j in range(i + 1) for g in layer_basis(n, j, p)]
                assert len(span) == comb(n, min(i, p, n - p)) ** 2, (n, i, p)
                basis = TriangularBasis()
                assert all(basis.insert(columns(g)) for g in span), (n, i, p)
                assert not any(basis.insert(columns(g)) for g in minors.minor_sum_basis(n, i, p)), (n, i, p)


def two_family_layer(n, i, p):
    """The layer representatives as first selected: insert the whole
    depth-(i-1) family (empty at depth 0), then keep the depth-i members
    that raise the rank."""
    if i < 0 or i > min(p, n - p):
        return ()
    basis = TriangularBasis()
    for _, poly in minor_sum_family(n, i - 1, p) if i else ():
        if not poly.is_zero():
            basis.insert(columns(poly))
    return tuple(
        poly for _, poly in minor_sum_family(n, i, p) if not poly.is_zero() and basis.insert(columns(poly))
    )


def test_layer_basis_matches_two_family_greedy():
    # every n <= 6, and n = 7 up to size 4 (every size in the large run)
    cases = [(n, p) for n in range(1, 7) for p in range(1, n + 1)]
    cases += [(7, p) for p in range(1, 8 if LARGE else 5)]
    for n, p in cases:
        for i in range(0, n + 1):
            assert layer_basis(n, i, p) == two_family_layer(n, i, p), (n, i, p)


def test_layer_tags_count_is_the_layer_dimension():
    # the closed form at sizes far past the expanded cross-check (n <= 4)
    for n in range(1, 11 if LARGE else 10):
        for i in range(0, n // 2 + 1):
            assert len(layer_tags(n, i)) == layer_dimension(n, i), (n, i)


def test_layer_tags_examples():
    assert layer_tags(2, 1) == (((1,), (1,)), ((1,), (2,)), ((2,), (1,)))
    # the trace is the only depth-0 sum, so only (1|1) ... (n|n) can be
    # dependent: the last diagonal minor is dropped
    tags = layer_tags(3, 1)
    assert len(tags) == 8 and ((3,), (3,)) not in tags
    assert layer_tags(3, 2) == ()
    # depth 0 is the invariant t_p, the sum of tag ((), ())
    assert layer_tags(3, 0) == (((), ()),)
    with pytest.raises(ValueError):
        layer_tags(3, -1)
    with pytest.raises(ValueError):
        layer_tags(3, 4)


def test_layer_tags_expand_no_polynomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("layer selection expanded a minor")

    monkeypatch.setattr(minors, "minor", refuse)
    layer_tags.cache_clear()
    minors._kept_pairs.cache_clear()
    assert len(layer_tags(7, 3)) == layer_dimension(7, 3)
    assert family_rank(7, 3, 4) == comb(7, 3) ** 2 == 1225



def test_every_h_k_is_a_highest_weight_vector():
    # h_k at every size p where the depth-k layer is nonzero, n <= 6; h_0 is t_p
    checked = 0
    for n in range(1, 7):
        for k in range(n // 2 + 1):
            for p in range(max(k, 1), n - k + 1):
                h = highest_weight_vector(n, k, p)
                assert is_highest_weight(h, k), (n, k, p)
                checked += 1
                if not k:
                    assert h == principal_minor_sum(n, p)
    assert checked == 43


def test_raising_derivations_reject_what_is_not_highest_weight():
    for n in range(2, 7):
        for k in range(1, n // 2 + 1):
            for p in range(k, n - k + 1):
                # the depth-k sum of ((1..k), (1..k)) has weight 0, not lambda_k
                P = tuple(range(1, k + 1))
                assert not is_highest_weight(prefixed_minor_sum(n, P, P, p), k), (n, k, p)
        if n >= 4:
            # one term of h_1 at size 2: weight e_1 - e_n, but E_{2,3} does not kill it
            f = minor(n, (1, 2), (2, n))
            assert f != highest_weight_vector(n, 1, 2)
            assert not raising_derivation(f, 2).is_zero()
            assert not is_highest_weight(f, 1)
            # with the other term at n = 4 it is h_1; at n > 4 terms are still missing
            assert is_highest_weight(f + minor(n, (1, 3), (3, n)), 1) is (n == 4)
    assert not is_highest_weight(highest_weight_vector(4, 1, 2), 2)  # the wrong layer
    assert not is_highest_weight(highest_weight_vector(4, 1, 2) * 0, 1)  # zero
