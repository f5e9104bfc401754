from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from orbitideals.polyring import (
    Polynomial,
    key_header,
    mon_from_record,
    mon_mul,
    mon_weight,
    monomials_of_degree,
    monomials_of_weight,
    pack,
    term_key,
    unpack,
)


def x(n, r, c):
    return Polynomial.variable(n, r, c)


@st.composite
def homogeneous_polys(draw, n=2, degree=None, max_terms=5):
    if degree is None:
        degree = draw(st.integers(min_value=1, max_value=3))
    mons = monomials_of_degree(n, degree)
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(mons), st.integers(min_value=-4, max_value=4)),
            min_size=0,
            max_size=max_terms,
        )
    )
    terms = {}
    for mon, c in picks:
        terms[mon] = terms.get(mon, 0) + c
    return Polynomial(n, terms)


@st.composite
def small_matrices(draw, n=2):
    vals = draw(
        st.lists(
            st.fractions(
                min_value=-3, max_value=3, max_denominator=4
            ),
            min_size=n * n,
            max_size=n * n,
        )
    )
    return [vals[k * n : (k + 1) * n] for k in range(n)]


def test_construction_and_validation():
    p = x(2, 1, 1)
    assert p.degree == 1
    assert not p.is_zero()
    assert Polynomial.zero(3).degree == -1
    with pytest.raises(ValueError):
        Polynomial(2, {(((1, 1), 1),): 1, (((1, 1), 2),): 1})  # mixed degrees
    with pytest.raises(ValueError):
        Polynomial(2, {(((3, 1), 1),): 1})  # variable out of range
    with pytest.raises(TypeError):
        Polynomial(2, {(((1, 1), 1),): Fraction(1, 2)})


def test_constructor_rejects_bool_coefficients():
    # True == 1 but prints as "True", which `from_records` cannot read back
    for coeff in (True, False):
        with pytest.raises(TypeError, match="exact integers"):
            Polynomial(2, {(((1, 1), 1),): coeff})
    p = Polynomial(2, {(((1, 1), 1),): 1})
    assert Polynomial.from_records(2, p.to_records()) == p


def test_constructor_takes_only_canonical_monomials():
    # the rule `mon_from_record` reads records by: sorted, distinct variables in range, exponents >= 1
    for bad in (
        (((2, 2), 1), ((1, 1), 1)),  # out of order: would differ from the sorted one and print twice
        (((1, 1), 1), ((1, 1), 1)),  # a repeated variable: would differ from x[1,1]^2
        (((1, 1), 0),),
        (((0, 1), 1),),
    ):
        with pytest.raises(ValueError):
            Polynomial(2, {bad: 1})
    f = Polynomial(2, {(((1, 1), 1), ((2, 2), 1)): 1, (((1, 2), 1), ((2, 1), 1)): -1})
    assert Polynomial.from_records(2, f.to_records()) == f
    assert str(f) == "x[1,1]*x[2,2] - x[1,2]*x[2,1]"


def test_add_examples():
    f = x(2, 1, 1) * x(2, 2, 2)
    assert f + Polynomial.zero(2) == f
    assert x(2, 1, 1) + (-1) * x(2, 1, 1) == Polynomial.zero(2)
    g = x(2, 1, 1) * x(2, 2, 2) + x(2, 1, 2) * x(2, 2, 1)
    assert len(g.terms) == 2
    with pytest.raises(ValueError):
        x(2, 1, 1) + g  # degree mismatch
    with pytest.raises(ValueError):
        x(2, 1, 1) + x(3, 1, 1)  # ambient mismatch


def test_mul_examples():
    f = x(2, 1, 1) + x(2, 2, 2)
    assert f * Polynomial.constant(2, 1) == f
    sq = x(2, 1, 1) * x(2, 1, 1)
    assert sq.terms == {(((1, 1), 2),): 1}
    g = x(2, 1, 1) - x(2, 2, 2)
    prod = f * g
    assert prod == x(2, 1, 1) * x(2, 1, 1) - x(2, 2, 2) * x(2, 2, 2)


def test_evaluate_examples():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert x(2, 1, 2).evaluate(m) == 2
    det = x(2, 1, 1) * x(2, 2, 2) - x(2, 1, 2) * x(2, 2, 1)
    assert det.evaluate([[1, 0], [0, 1]]) == 1
    assert det.evaluate(m) == -2
    trace = x(2, 1, 1) + x(2, 2, 2)
    nilp = [[0, 1], [0, 0]]
    assert trace.evaluate(nilp) == 0


@settings(max_examples=60)
@given(homogeneous_polys(degree=2), homogeneous_polys(degree=2), homogeneous_polys(degree=2))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40)
@given(homogeneous_polys(), homogeneous_polys(), small_matrices())
def test_evaluate_is_ring_homomorphism(f, g, m):
    assert (f * g).evaluate(m) == f.evaluate(m) * g.evaluate(m)
    if f.degree == g.degree or f.is_zero() or g.is_zero():
        assert (f + g).evaluate(m) == f.evaluate(m) + g.evaluate(m)


@settings(max_examples=60)
@given(homogeneous_polys(n=3))
def test_serialization_round_trip(f):
    records = f.to_records()
    assert Polynomial.from_records(3, records) == f
    # canonical descending order
    keys = [term_key(3, tuple(((r, c), e) for r, c, e in rec["monomial"])) for rec in records]
    assert keys == sorted(keys, reverse=True)


def test_mon_from_record_reads_only_the_printed_form():
    assert mon_from_record(3, []) == ()
    assert mon_from_record(3, [[1, 1, 2], [2, 1, 1], [2, 3, 1]]) == (((1, 1), 2), ((2, 1), 1), ((2, 3), 1))
    for bad in (
        [[2, 2, 1], [1, 1, 2]],  # out of order
        [[1, 1, 1], [1, 1, 1]],  # a repeated variable
        [[1, 1, 0]],  # exponent below 1
        [[0, 1, 1]],
        [[1, 4, 1]],
        [[1, 1]],
    ):
        with pytest.raises(ValueError):
            mon_from_record(3, bad)
        with pytest.raises(ValueError):
            Polynomial.from_records(3, [{"monomial": bad, "coeff": "1"}])


def test_monomials_of_degree_counts():
    assert len(monomials_of_degree(2, 2)) == 10  # C(4+2-1, 2)
    assert len(monomials_of_degree(3, 1)) == 9
    assert monomials_of_degree(2, 0) == [()]
    assert mon_mul((), (((1, 1), 1),)) == (((1, 1), 1),)


def test_monomials_of_degree_in_given_variables():
    diagonal = [(r, r) for r in range(1, 5)]
    for d in range(4):
        mons = monomials_of_degree(4, d, diagonal)
        assert len(mons) == comb(4 + d - 1, d)
        # the same monomials, in the same order, as filtering the full list
        assert mons == [m for m in monomials_of_degree(4, d) if all(r == c for (r, c), _ in m)]


def tuple_term_key(n, mon):
    """Reference graded-lex key: (total degree, dense exponent vector)."""
    dense = [0] * (n * n)
    for (r, c), e in mon:
        dense[(r - 1) * n + (c - 1)] = e
    return (sum(dense), tuple(dense))


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.tuples(st.integers(0, 15), st.integers(1, 9)), max_size=6),
    st.lists(st.tuples(st.integers(0, 15), st.integers(1, 9)), max_size=6),
)
def test_packed_term_key_keeps_graded_lex_order(n, a, b):
    def mon(pairs):
        exps = {}
        for idx, e in pairs:
            var = divmod(idx % (n * n), n)
            exps[(var[0] + 1, var[1] + 1)] = e
        return tuple(sorted(exps.items()))

    ma, mb = mon(a), mon(b)
    ka, kb = term_key(n, ma), term_key(n, mb)
    assert isinstance(ka, int)
    ta, tb = tuple_term_key(n, ma), tuple_term_key(n, mb)
    assert (ka < kb) == (ta < tb) and (ka == kb) == (ta == tb)


@st.composite
def factored_monomials(draw):
    """(n, d, a, b): monomials a, b in the n*n variables with deg a + deg b = d."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, 8))
    variables = draw(st.lists(st.integers(0, n * n - 1), min_size=d, max_size=d))
    k = draw(st.integers(0, d))

    def mon(indices):
        exps = {}
        for v in indices:
            var = (v // n + 1, v % n + 1)
            exps[var] = exps.get(var, 0) + 1
        return tuple(sorted(exps.items()))

    return n, d, mon(variables[:k]), mon(variables[k:])


@settings(max_examples=200)
@given(factored_monomials())
def test_term_key_of_a_product_is_a_sum_of_packs(case):
    # the graded pieces build the columns of a row g * m this way
    n, d, a, b = case
    product = mon_mul(a, b)
    assert key_header(n, d) == d << (n * n * d.bit_length())
    assert term_key(n, product) == key_header(n, d) + pack(n, a, d) + pack(n, b, d)
    for m in (a, b, product):
        assert unpack(n, pack(n, m, d), d) == m
    assert unpack(n, term_key(n, product), d) == product


def test_monomials_of_weight_is_the_filtered_degree_list():
    for n in range(1, 4):
        for d in range(5):
            by_weight: dict = {}
            for m in monomials_of_degree(n, d):
                by_weight.setdefault(mon_weight(n, m), []).append(m)
            for w, mons in by_weight.items():
                assert monomials_of_weight(n, d, w) == mons, (n, d, w)
    assert monomials_of_weight(3, 2, (3, -3, 0)) == []  # more weight than degree
    assert monomials_of_weight(2, 1, (1, 0)) == []  # weights sum to zero


def test_str_is_stable():
    det = x(2, 1, 1) * x(2, 2, 2) - x(2, 1, 2) * x(2, 2, 1)
    assert str(det) == "x[1,1]*x[2,2] - x[1,2]*x[2,1]"
    assert str(Polynomial.zero(2)) == "0"
    assert str(-2 * (x(2, 1, 1) * x(2, 1, 1))) == "-2*x[1,1]^2"
