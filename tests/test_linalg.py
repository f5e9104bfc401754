from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitideals.linalg import TriangularBasis, apply_functional


def make_basis(track=False):
    return TriangularBasis(track=track)


def test_insert_and_rank():
    basis = make_basis()
    assert basis.insert({1: 1, 0: 2})
    assert basis.insert({0: 1})
    assert not basis.insert({1: 2, 0: 5})  # 2*(row1) + row2
    assert basis.rank == 2


def test_fill_in_shares_the_column_ints_of_earlier_rows():
    # packed exponent digits are large ints; a row that copied every
    # fill-in column would raise the memory of large pieces by more than a
    # third
    big = 1 << 100
    basis = make_basis()
    basis.insert({big: 1, big + 1: 1, big + 2: 1})
    assert basis.insert({big: 1, big + 1: 2})  # fill-in at column `big + 2`
    (first,) = (k for k in basis.rows[big] if k == big + 2)
    (second,) = (k for k in basis.rows[big + 1] if k == big + 2)
    assert second is first


def test_reduce_returns_combo():
    basis = make_basis()
    basis.insert({0: 2, 2: 4})
    basis.insert({1: 3})
    residual, combo = basis.reduce({0: 1, 1: 3, 2: 7})
    assert residual == {2: 5}
    # vec - residual == sum(combo * basis rows)
    rebuilt = dict(residual)
    for piv, c in combo.items():
        for col, v in basis.rows[piv].items():
            rebuilt[col] = rebuilt.get(col, 0) + c * v
    assert {k: v for k, v in rebuilt.items() if v} == {0: 1, 1: 3, 2: 7}


def test_provenance_tracks_original_rows():
    basis = make_basis(track=True)
    rows = {"a": {2: 1, 1: 1}, "b": {1: 1, 0: 1}, "c": {2: 1, 0: 1}}
    for tag, vec in rows.items():
        assert basis.insert(vec, tag)
    target = {2: 2, 1: 1, 0: 1}  # a + c
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
    vectors = [{4: 1, 3: 2, 1: 1}, {3: 1, 2: 1}, {4: 3, 2: 2}]
    for vec in vectors:
        basis.insert(vec)
    outside = {1: 1, 0: 1}
    residual, _ = basis.reduce(outside)
    assert residual
    lead = min(residual)
    lam = basis.annihilator(lead)
    for vec in vectors:
        assert apply_functional(lam, vec) == 0
    assert apply_functional(lam, residual) != 0


def test_annihilator_requires_free_column():
    basis = make_basis()
    basis.insert({0: 1})
    with pytest.raises(ValueError):
        basis.annihilator(0)


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
    """Reference eliminator: every coefficient is a Fraction, a query is
    reduced by dividing each work coefficient by the row's lead, and
    provenance is updated in Fractions.  Columns are ints ordered by value,
    and a row's smallest column is its pivot.
    A new row is reduced only at its lead, as TriangularBasis stores it;
    with `full=True` it is fully reduced.  A stored row is scaled to
    TriangularBasis's form, primitive integral with a positive lead, and its
    provenance is scaled to match and stored as TriangularBasis stores it:
    ints over one positive denominator coprime to them, kept in `den` where
    it is not 1."""

    def __init__(self, full=False, track=True):
        self.full = full
        self.track = track  # read by GradedPiece; provenance is always kept
        self.rows: dict = {}
        self.prov: dict = {}
        self.den: dict = {}

    def reduce(self, vec, lead_only=False):
        work = {col: Fraction(v) for col, v in vec.items() if v}
        residual: dict = {}
        combo: dict = {}
        while work:
            col = min(work)
            c = work.pop(col)
            row = self.rows.get(col)
            if row is None:
                residual[col] = c
                if lead_only:
                    residual.update(work)
                    break
                continue
            c = c / row[col]
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
        residual, combo = self.reduce(vec, lead_only=not self.full)
        if not residual:
            return False
        pivot = min(residual)
        # the primitive integral multiple of the residual with a positive lead
        lead = Fraction(residual[pivot])
        monic = {col: Fraction(v) / lead for col, v in residual.items()}
        numer = lcm(*(v.denominator for v in monic.values()))
        scale = Fraction(numer, gcd(*(int(v * numer) for v in monic.values()))) / lead
        self.rows[pivot] = {col: int(v * scale) for col, v in residual.items()}
        prov = {tag: scale}
        for t, pc in self.provenance_of(combo).items():
            nv = prov.get(t, 0) - pc * scale
            if nv:
                prov[t] = nv
            else:
                prov.pop(t, None)
        den = lcm(*(v.denominator for v in prov.values()))
        self.prov[pivot] = {t: int(v * den) for t, v in prov.items()}
        if den != 1:
            self.den[pivot] = den
        return True

    def provenance_of(self, combo):
        out: dict = {}
        for piv, c in combo.items():
            for t, pc in self.prov[piv].items():
                out[t] = out.get(t, 0) + c * Fraction(pc, self.den.get(piv, 1))
        return {t: v for t, v in out.items() if v}

    def annihilator(self, free_column):
        lam = {free_column: Fraction(1)}
        for piv in sorted(self.rows, reverse=True):
            s = Fraction(0)
            for col, v in self.rows[piv].items():
                if col != piv and col in lam:
                    s += v * lam[col]
            if s:
                lam[piv] = -s / self.rows[piv][piv]
        return lam


def assert_primitive_rows(basis):
    for piv, row in basis.rows.items():
        assert all(type(v) is int for v in row.values()), row
        assert row[piv] > 0 and gcd(*row.values()) == 1, row
        assert min(row) == piv


def assert_int_unless_fractional(values):
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)


def check_matches_reference(rows, probe):
    basis = make_basis(track=True)
    ref = FractionBasis()
    for tag, row in enumerate(rows):
        vec = {j: v for j, v in enumerate(row) if v}
        assert basis.insert(vec, tag) == ref.insert(vec, tag)
    assert basis.rank == len(ref.rows)
    assert set(basis.rows) == set(ref.rows)
    assert basis.rows == ref.rows
    assert basis.prov == ref.prov
    assert basis.den == ref.den
    assert_primitive_rows(basis)
    assert all(type(d) is int and d > 1 for d in basis.den.values()), basis.den
    for piv, prov in basis.prov.items():
        assert all(type(v) is int for v in prov.values()), prov
        assert gcd(basis.den.get(piv, 1), *prov.values()) == 1
    vec = {j: v for j, v in enumerate(probe) if v}
    residual, combo = basis.reduce(vec)
    ref_residual, ref_combo = ref.reduce(vec)
    assert residual == ref_residual
    assert combo == ref_combo
    assert basis.contains(vec) == (not ref_residual)
    assert basis.provenance_of(combo) == ref.provenance_of(ref_combo)
    assert_int_unless_fractional(residual.values())
    assert_int_unless_fractional(combo.values())
    assert_int_unless_fractional(basis.provenance_of(combo).values())
    for col in range(len(probe)):
        if col not in basis.rows:
            lam = basis.annihilator(col)
            assert lam == ref.annihilator(col)
            assert_int_unless_fractional(lam.values())


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
    check_matches_reference(rows, probe)


entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)),
)


@settings(max_examples=200)
@given(
    st.lists(st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=6),
    st.lists(entries, min_size=4, max_size=4),
)
@example(rows=[[0, 0, 1, Fraction(2, 1)], [0, 1, 0, Fraction(1, 2)]], probe=[1, 0, 0, Fraction(2, 1)])
@example(rows=[[Fraction(4, 3), Fraction(2, 3), 0, 0]], probe=[Fraction(1, 2), 1, 0, 0])
def test_rational_entries_match_fraction_reference(rows, probe):
    # denominators are cleared once, on entry; a Fraction with denominator 1
    # is read as its int
    check_matches_reference(rows, probe)


@settings(max_examples=200)
@given(
    st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=6, max_size=6),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=6, max_size=6),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=8, max_size=8),
)
def test_lead_reduction_answers_as_full_reduction(rows, probe, coeffs):
    # rows stored reduced only at their lead differ from fully reduced ones,
    # but every answer the basis gives is fixed by the span
    basis = make_basis(track=True)
    ref = FractionBasis(full=True)
    vecs = [{j: v for j, v in enumerate(row) if v} for row in rows]
    for tag, vec in enumerate(vecs):
        assert basis.insert(vec, tag) == ref.insert(vec, tag)
    assert set(basis.rows) == set(ref.rows)
    member: dict = {}
    for c, vec in zip(coeffs, vecs):
        for col, v in vec.items():
            member[col] = member.get(col, 0) + c * v
    for vec in ({j: v for j, v in enumerate(probe) if v}, {k: v for k, v in member.items() if v}):
        residual, combo = basis.reduce(vec)
        ref_residual, ref_combo = ref.reduce(vec)
        assert residual == ref_residual
        assert basis.provenance_of(combo) == ref.provenance_of(ref_combo)
    for col in range(6):
        if col not in basis.rows:
            assert basis.annihilator(col) == ref.annihilator(col)


def test_new_rows_are_reduced_only_at_their_lead():
    basis = make_basis()
    basis.insert({1: 1})
    assert basis.insert({0: 1, 1: 1})
    assert basis.rows[0] == {0: 1, 1: 1}  # column 1 is a pivot, left in place
    assert basis.reduce({0: 1, 2: 1}) == ({2: 1}, {0: 1, 1: -1})


def test_non_integral_row_certificates():
    basis = make_basis(track=True)
    a, b = {1: 2, 2: 1}, {0: 1, 1: 1}
    assert basis.insert(a, "a")
    assert basis.rows[1] == {1: 2, 2: 1}  # the lead 2 is kept, not divided out
    assert_primitive_rows(basis)
    assert basis.prov[1] == {"a": 1} and 1 not in basis.den  # a denominator 1 is not kept
    assert basis.insert(b, "b")
    lam = basis.annihilator(2)
    assert lam == {2: 1, 1: Fraction(-1, 2), 0: Fraction(1, 2)}
    assert apply_functional(lam, a) == 0 and apply_functional(lam, b) == 0
    assert apply_functional(lam, {2: 1}) == 1
    target = {0: 2, 1: 4, 2: 1}  # 2b + a, reduced through the row with lead 2
    residual, combo = basis.reduce(target)
    assert not residual and combo == {0: 2, 1: 1}
    prov = basis.provenance_of(combo)
    assert prov == {"a": 1, "b": 2}
    rebuilt: dict = {}
    for tag, c in prov.items():
        for col, v in {"a": a, "b": b}[tag].items():
            rebuilt[col] = rebuilt.get(col, 0) + c * v
    assert {k: v for k, v in rebuilt.items() if v} == target
    # a lead that does not divide the query's entry scales the work vector
    residual, combo = basis.reduce({1: 1, 2: 1})
    assert residual == {2: Fraction(1, 2)} and combo == {1: Fraction(1, 2)}
    assert basis.provenance_of(combo) == {"a": Fraction(1, 2)}


def test_provenance_keeps_one_denominator_per_row():
    basis = make_basis(track=True)
    assert basis.insert({1: 1}, "a")
    assert basis.insert({1: 1, 2: 2}, "b")  # (b - a) / 2 is primitive
    assert basis.rows[2] == {2: 1}
    assert basis.prov[2] == {"b": 1, "a": -1} and basis.den[2] == 2
    assert basis.insert({0: -3, 2: 1}, "c")  # a negative lead is made positive
    assert basis.rows[0] == {0: 3, 2: -1}
    assert basis.prov[0] == {"c": -1} and basis.den == {2: 2}
    residual, combo = basis.reduce({0: 3, 1: 1, 2: 1})
    assert not residual and combo == {0: 1, 1: 1, 2: 2}
    prov = basis.provenance_of(combo)
    assert prov == {"b": 1, "c": -1}  # the target is b - c
    assert_primitive_rows(basis)
