from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitideals.linalg import TriangularBasis, apply_functional


def make_basis(track=False):
    return TriangularBasis(lambda col: col, track=track)


def test_insert_and_rank():
    basis = make_basis()
    assert basis.insert({0: 1, 1: 2})
    assert basis.insert({1: 1})
    assert not basis.insert({0: 2, 1: 5})  # 2*(row1) + row2
    assert basis.rank == 2


def test_reduce_returns_combo():
    basis = make_basis()
    basis.insert({2: 2, 0: 4})
    basis.insert({1: 3})
    residual, combo = basis.reduce({2: 1, 1: 3, 0: 7})
    assert residual == {0: 5}
    # vec - residual == sum(combo * basis rows)
    rebuilt = dict(residual)
    for piv, c in combo.items():
        for col, v in basis.rows[piv].items():
            rebuilt[col] = rebuilt.get(col, 0) + c * v
    assert {k: v for k, v in rebuilt.items() if v} == {2: 1, 1: 3, 0: 7}


def test_provenance_tracks_original_rows():
    basis = make_basis(track=True)
    rows = {"a": {0: 1, 1: 1}, "b": {1: 1, 2: 1}, "c": {0: 1, 2: 1}}
    for tag, vec in rows.items():
        assert basis.insert(vec, tag)
    target = {0: 2, 1: 1, 2: 1}  # a + c
    residual, combo = basis.reduce(target)
    assert not residual
    prov = basis.provenance_of(combo)
    rebuilt: dict = {}
    for tag, c in prov.items():
        for col, v in rows[tag].items():
            rebuilt[col] = rebuilt.get(col, 0) + c * v
    assert {k: v for k, v in rebuilt.items() if v} == target


def test_annihilator_kills_row_span():
    basis = make_basis()
    vectors = [{0: 1, 1: 2, 3: 1}, {1: 1, 2: 1}, {0: 3, 2: 2}]
    for vec in vectors:
        basis.insert(vec)
    outside = {3: 1, 4: 1}
    residual, _ = basis.reduce(outside)
    assert residual
    lead = max(residual)
    lam = basis.annihilator(lead)
    for vec in vectors:
        assert apply_functional(lam, vec) == 0
    assert apply_functional(lam, residual) != 0


def test_annihilator_requires_free_column():
    basis = make_basis()
    basis.insert({1: 1})
    with pytest.raises(ValueError):
        basis.annihilator(1)


@settings(max_examples=50)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_rank_matches_dense_elimination(rows):
    vecs = [{j: v for j, v in enumerate(row) if v} for row in rows]
    basis = make_basis()
    for vec in vecs:
        basis.insert(dict(vec))
    dense = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(4):
        pivot = next((r for r in range(rank, len(dense)) if dense[r][col] != 0), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        lead = dense[rank][col]
        dense[rank] = [x / lead for x in dense[rank]]
        for r in range(len(dense)):
            if r != rank and dense[r][col] != 0:
                f = dense[r][col]
                dense[r] = [a - f * b for a, b in zip(dense[r], dense[rank])]
        rank += 1
    assert basis.rank == rank


@settings(max_examples=50)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
)
def test_membership_decision_matches_recombination(rows, coeffs):
    vecs = [{j: v for j, v in enumerate(row) if v} for row in rows]
    basis = make_basis(track=True)
    for tag, vec in enumerate(vecs):
        basis.insert(dict(vec), tag)
    combo_target: dict = {}
    for c, vec in zip(coeffs, vecs):
        for col, v in vec.items():
            combo_target[col] = combo_target.get(col, 0) + c * v
    combo_target = {k: v for k, v in combo_target.items() if v}
    residual, combo = basis.reduce(combo_target)
    assert not residual  # true linear combinations always reduce to zero
    prov = basis.provenance_of(combo)
    rebuilt: dict = {}
    for tag, c in prov.items():
        for col, v in vecs[tag].items():
            rebuilt[col] = rebuilt.get(col, 0) + c * v
    assert {k: v for k, v in rebuilt.items() if v} == combo_target
