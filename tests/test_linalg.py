from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitideals.linalg import TriangularBasis, apply_functional


def make_basis(track=False):
    return TriangularBasis(track=track)


def test_insert_and_rank():
    basis = make_basis()
    assert basis.insert({0: 1, 1: 2})
    assert basis.insert({1: 1})
    assert not basis.insert({0: 2, 1: 5})  # 2*(row1) + row2
    assert basis.rank == 2


def test_fill_in_shares_the_column_ints_of_earlier_rows():
    # packed term keys are large ints; a row that copied every fill-in
    # column would raise the memory of large pieces by more than a third
    big = 1 << 100
    basis = make_basis()
    basis.insert({big + 2: 1, big + 1: 1, big: 1})
    assert basis.insert({big + 2: 1, big + 1: 2})  # fill-in at column `big`
    (first,) = (k for k in basis.rows[big + 2] if k == big)
    (second,) = (k for k in basis.rows[big + 1] if k == big)
    assert second is first


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


class FractionBasis:
    """Reference eliminator: TriangularBasis as it was when every coefficient
    was a Fraction and provenance was divided by the lead on every update.
    Columns are ints ordered by value."""

    def __init__(self):
        self.rows: dict = {}
        self.prov: dict = {}

    def reduce(self, vec):
        work = {col: Fraction(v) for col, v in vec.items() if v}
        residual: dict = {}
        combo: dict = {}
        while work:
            col = max(work)
            c = work.pop(col)
            row = self.rows.get(col)
            if row is None:
                residual[col] = c
                continue
            combo[col] = c
            for col2, v in row.items():
                if col2 != col:
                    nv = work.get(col2, 0) - c * v
                    if nv:
                        work[col2] = nv
                    else:
                        work.pop(col2, None)
        return residual, combo

    def insert(self, vec, tag):
        residual, combo = self.reduce(vec)
        if not residual:
            return False
        pivot = max(residual)
        lead = Fraction(residual[pivot])
        self.rows[pivot] = {col: Fraction(v) / lead for col, v in residual.items()}
        prov = {tag: Fraction(1) / lead}
        for piv, c in combo.items():
            for t, pc in self.prov[piv].items():
                nv = prov.get(t, 0) - Fraction(c) * pc / lead
                if nv:
                    prov[t] = nv
                else:
                    prov.pop(t, None)
        self.prov[pivot] = prov
        return True

    def provenance_of(self, combo):
        out: dict = {}
        for piv, c in combo.items():
            for t, pc in self.prov[piv].items():
                out[t] = out.get(t, 0) + c * pc
        return {t: v for t, v in out.items() if v}

    def annihilator(self, free_column):
        lam = {free_column: Fraction(1)}
        for piv in sorted(self.rows):
            s = Fraction(0)
            for col, v in self.rows[piv].items():
                if col != piv and col in lam:
                    s += v * lam[col]
            if s:
                lam[piv] = -s
        return lam


def assert_int_unless_fractional(values):
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)


@settings(max_examples=200)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
        min_size=1,
        max_size=7,
    ),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
)
def test_matches_fraction_reference(rows, probe):
    basis = make_basis(track=True)
    ref = FractionBasis()
    for tag, row in enumerate(rows):
        vec = {j: v for j, v in enumerate(row) if v}
        assert basis.insert(vec, tag) == ref.insert(vec, tag)
    assert basis.rank == len(ref.rows)
    assert set(basis.rows) == set(ref.rows)
    assert basis.rows == ref.rows
    assert basis.prov == ref.prov
    for piv in basis.rows:
        assert_int_unless_fractional(basis.rows[piv].values())
        assert_int_unless_fractional(basis.prov[piv].values())
    vec = {j: v for j, v in enumerate(probe) if v}
    residual, combo = basis.reduce(vec)
    ref_residual, ref_combo = ref.reduce(vec)
    assert residual == ref_residual
    assert combo == ref_combo
    assert basis.provenance_of(combo) == ref.provenance_of(ref_combo)
    for col in range(5):
        if col not in basis.rows:
            assert basis.annihilator(col) == ref.annihilator(col)


def test_non_integral_row_certificates():
    basis = make_basis(track=True)
    a, b = {1: 2, 0: 1}, {2: 1, 1: 1}
    assert basis.insert(a, "a")
    assert basis.rows[1] == {1: 1, 0: Fraction(1, 2)}
    assert type(basis.rows[1][1]) is int
    assert basis.prov[1] == {"a": Fraction(1, 2)}
    assert basis.insert(b, "b")
    lam = basis.annihilator(0)
    assert apply_functional(lam, a) == 0 and apply_functional(lam, b) == 0
    assert apply_functional(lam, {0: 1}) == 1
    target = {2: 2, 1: 4, 0: 1}  # 2b + a, reduced through the row with 1/2
    residual, combo = basis.reduce(target)
    assert not residual and 1 in combo
    prov = basis.provenance_of(combo)
    assert prov == {"a": 1, "b": 2}
    rebuilt: dict = {}
    for tag, c in prov.items():
        for col, v in {"a": a, "b": b}[tag].items():
            rebuilt[col] = rebuilt.get(col, 0) + c * v
    assert {k: v for k, v in rebuilt.items() if v} == target
