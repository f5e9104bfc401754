import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from orbitideals.cli import main
from orbitideals.partitions import (
    Partition,
    admits_minor_space,
    excluded_depths,
    full_schedule,
    minimal_schedule,
    minor_space_vanishes,
    necessity_witness,
    parse_partition,
    partitions_of,
    rank_variety_schedule,
    redundancy_witness,
)
from orbitideals.schur import layer_dimension


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    counts = Counter(bins)
    parts = sorted((v for v in counts.values()), reverse=True)
    return Partition(parts)


def minor_spaces(layers):
    """The layers of a schedule that are minor spaces (depth i >= 1)."""
    return tuple((i, p) for i, p in layers if i)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    for bad in ((True, True), (2, True), (2.0,)):  # bool is an int subclass, but not a part
        with pytest.raises(ValueError, match="parts must be positive integers"):
            Partition(bad)
    mu = Partition((3, 1))
    assert mu.n == 4
    assert len(mu) == 2
    for name in ("parts", "n", "extra"):
        with pytest.raises(AttributeError):
            setattr(mu, name, (1,))


def test_partition_is_a_tuple():
    mu = Partition((3, 1))
    assert mu == (3, 1) and (3, 1) == mu and mu == Partition([3, 1])
    assert hash(mu) == hash((3, 1)) and {(3, 1): "x"}[mu] == "x"
    assert mu[0] == 3 and mu[:1] == (3,) and list(mu) == [3, 1]
    assert repr(mu) == "Partition((3, 1))" and str(mu) == "3,1"
    assert repr(Partition((3,))) == "Partition((3,))" and str(Partition((3,))) == "3"
    assert type(mu.conjugate()) is Partition and repr(mu.conjugate()) == "Partition((2, 1, 1))"


def test_parse_and_format():
    assert parse_partition("3,3,2,2,1,1,1,1,1") == (3, 3, 2, 2, 1, 1, 1, 1, 1)
    assert parse_partition("3^2,2^2,1^5") == (3, 3, 2, 2, 1, 1, 1, 1, 1)
    assert parse_partition(" 4 , 2^3 ,1^5") == (4, 2, 2, 2, 1, 1, 1, 1, 1)
    assert str(parse_partition("3^2,1")) == "3,3,1"
    with pytest.raises(ValueError):
        parse_partition("2,3")
    with pytest.raises(ValueError):
        parse_partition("")
    with pytest.raises(ValueError):
        parse_partition("3,,1")


@pytest.mark.parametrize(
    "text", ["2^0,1", "2^-1,1", "2^+1", "3_0,1", "+3", "-3", "3.0", "\u00b3", "3^", "^2", "3^2^2", "2 ^2"]
)
def test_parse_rejects_all_but_digits_and_positive_exponents(text):
    # int() alone would read 3_0 as 30 and +3 as 3, and 2^0 would drop a part
    with pytest.raises(ValueError):
        parse_partition(text)


def test_conjugate_paper_values():
    assert parse_partition("3^2,2^2,1^5").conjugate() == (9, 4, 2)
    assert parse_partition("4,2^3,1^5").conjugate() == (9, 4, 1, 1)
    assert Partition((1,) * 6).conjugate() == (6,)


@given(partition_strategy())
def test_conjugate_involution(mu):
    assert mu.conjugate().conjugate() == mu
    assert mu.conjugate().n == mu.n


def test_critical_size_examples():
    mu = parse_partition("4,2^3,1^5")
    assert mu.critical_size(1) == 4
    assert mu.critical_size(3) == 6
    assert Partition((7,)).critical_size(1) == 7
    with pytest.raises(ValueError):
        mu.critical_size(0)
    with pytest.raises(ValueError):
        mu.critical_size(10)


@given(partition_strategy())
def test_critical_size_nondecreasing(mu):
    sizes = [mu.critical_size(i) for i in range(1, len(mu) + 1)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_full_schedule_examples():
    # (2,3) is a zero space at n=4
    assert full_schedule(Partition((2, 2))) == ((0, 1), (0, 2), (1, 2))

    assert full_schedule(Partition((5,))) == ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5))

    sched = full_schedule(parse_partition("3^2,2^2,1^5"))
    assert minor_spaces(sched) == ((1, 3), (2, 5), (3, 6), (4, 7), (5, 7), (6, 7), (7, 7))


def test_minimal_schedule_paper_examples():
    sched = minimal_schedule(parse_partition("3^2,2^2,1^5"))
    assert sched == ((0, 1), (0, 2), (0, 3), (1, 3), (3, 6), (5, 7), (6, 7), (7, 7))

    sched = minimal_schedule(parse_partition("4,2^3,1^5"))
    assert sched == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 5), (3, 6), (5, 7), (6, 7), (7, 7))

    sched = minimal_schedule(Partition((6,)))
    assert sched == ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6))


def test_minimal_schedule_dimensions(capsys):
    # a schedule's layers carry no dimension; the schedule report adds it
    assert main(["schedule", "--partition", "3^2,2^2,1^5", "--json"]) == 0
    minimal = json.loads(capsys.readouterr().out)["minimal"]
    assert tuple((d["i"], d["p"]) for d in minimal) == minor_spaces(minimal_schedule(parse_partition("3^2,2^2,1^5")))
    for d in minimal:
        assert d["dimension"] == layer_dimension(15, d["i"])


def check_layers(mu: Partition, layers, ambient: int):
    """The invariants (0, shift+1) .. (0, shift+mu_1), then minor spaces at
    strictly increasing depths i >= 1, non-decreasing sizes p = critical_size(i)."""
    shift = ambient - mu.n
    k = mu[0]
    assert layers[:k] == tuple((0, shift + p) for p in range(1, k + 1)), (mu, ambient, layers)
    spaces = layers[k:]
    assert all(i >= 1 and p == mu.critical_size(i) for i, p in spaces), (mu, ambient, layers)
    assert all(a < c and b <= d for (a, b), (c, d) in zip(spaces, spaces[1:])), (mu, ambient, layers)


def test_schedule_layers_in_generator_order():
    for n in range(1, 9):
        for mu in partitions_of(n):
            full, minimal = full_schedule(mu), minimal_schedule(mu)
            check_layers(mu, full, n)
            check_layers(mu, minimal, n)
            check_layers(mu, rank_variety_schedule(mu, n + 2), n + 2)
            rest = iter(full)
            assert all(layer in rest for layer in minimal), mu  # a subsequence


@given(partition_strategy())
def test_minimal_subset_of_full(mu):
    full = set(minor_spaces(full_schedule(mu)))
    mini = set(minor_spaces(minimal_schedule(mu)))
    assert mini <= full
    p1 = mu.critical_size(1)
    if 1 <= min(p1, mu.n - p1):
        assert (1, p1) in mini


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=4))
def test_rectangles_keep_only_depth_one(a, s):
    mu = Partition((a,) * s)
    pairs = minor_spaces(minimal_schedule(mu))
    for i, p in pairs:
        assert i == 1
    assert excluded_depths(mu) == tuple(range(2, s + 1))


def test_necessity_witness_examples():
    w = necessity_witness(parse_partition("4,2^3,1^5"), 3)
    assert w == (3, 3, 3, 2, 1, 1, 1, 1)
    assert w.conjugate() == (8, 4, 3)

    w = necessity_witness(parse_partition("3^2,2^2,1^5"), 5)
    assert w == (3, 3, 2, 2, 2, 1, 1, 1)

    w = necessity_witness(parse_partition("3^2,2^2,1^5"), 3)
    assert w == (3, 3, 3, 2, 1, 1, 1, 1)
    assert w.critical_size(3) == 7 > 6


def test_necessity_witness_rejects_bad_depths():
    mu = parse_partition("3^2,2^2,1^5")
    with pytest.raises(ValueError):
        necessity_witness(mu, 1)
    with pytest.raises(ValueError):
        necessity_witness(mu, 2)  # excluded depth
    with pytest.raises(ValueError):
        necessity_witness(Partition((2, 2, 1)), 2)  # excluded depth
    with pytest.raises(ValueError):
        necessity_witness(mu, 100)


def test_necessity_witness_postconditions_sweep():
    # every scheduled depth >= 2 over all partitions of n <= 12
    for n in range(1, 13):
        for mu in partitions_of(n):
            for i, p in minimal_schedule(mu):
                if i < 2:
                    continue
                w = necessity_witness(mu, i)
                assert w.n == mu.n
                for j in range(1, i):
                    assert w.critical_size(j) <= mu.critical_size(j)
                assert w.critical_size(i) > p


def test_redundancy_witness_examples():
    assert redundancy_witness(parse_partition("3^2,2^2,1^5"), 2) == (3, 3, 3, 3, 3)
    assert redundancy_witness(Partition((2, 2)), 2) == (2, 2)
    with pytest.raises(ValueError):
        redundancy_witness(Partition((2, 1, 1)), 2)  # depth 2 is scheduled there
    with pytest.raises(ValueError):
        redundancy_witness(Partition((2, 2)), 1)


def test_redundancy_witness_defining_equation():
    for n in range(2, 11):
        for mu in partitions_of(n):
            for i in excluded_depths(mu):
                w = redundancy_witness(mu, i)
                assert w.n == mu.n
                assert w[: i - 1] == mu[: i - 1]
                tail = w[i - 1 :]
                head = [v for v in tail if v == mu[i - 1]]
                rest = [v for v in tail if v != mu[i - 1]]
                assert len(rest) <= 1
                if rest:
                    assert 1 <= rest[0] <= mu[i - 1] - 1
                assert sum(head) + sum(rest) == mu.n - sum(mu[: i - 1])


def test_rank_variety_schedule():
    mu = Partition((2, 1))
    assert tuple(p for i, p in rank_variety_schedule(mu, 4) if i == 0) == (2, 3)

    assert rank_variety_schedule(Partition((1,)), 3) == ((0, 3), (1, 1))

    with pytest.raises(ValueError):
        rank_variety_schedule(Partition((3, 2)), 4)


@given(partition_strategy(max_n=8))
def test_rank_variety_reduces_to_minimal(mu):
    assert rank_variety_schedule(mu, mu.n) == minimal_schedule(mu)


def test_partitions_of_counts():
    counts = [len(list(partitions_of(n))) for n in range(1, 11)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for mu in partitions_of(6):
        assert mu.n == 6


def test_zero_test():
    assert minor_space_vanishes(4, 2, 3)
    assert not minor_space_vanishes(4, 2, 2)
    assert not minor_space_vanishes(15, 7, 7)
    assert minor_space_vanishes(15, 8, 7)


def test_admits_depth_one_always():
    for n in range(1, 8):
        for mu in partitions_of(n):
            assert admits_minor_space(mu, 1)


def test_hook_schedules_match_known_form():
    # hooks (a,1^b) keep exactly the depths 1..min(a, n-a) at size a
    for a in range(2, 5):
        for b in range(1, 4):
            mu = Partition((a,) + (1,) * b)
            expect = tuple((i, a) for i in range(1, min(a, mu.n - a) + 1))
            assert minor_spaces(minimal_schedule(mu)) == expect


def test_two_column_schedules_match_known_form():
    # (2^a,1^b) keeps depth 1 at size 2 plus the single depth a+1 at size a+1
    for a in range(1, 4):
        for b in range(0, 4):
            mu = Partition((2,) * a + (1,) * b)
            n = mu.n
            expect = []
            if 1 <= min(2, n - 2):
                expect.append((1, 2))
            if b >= 1 and a + 1 <= min(a + 1, n - a - 1):
                expect.append((a + 1, a + 1))
            assert minor_spaces(minimal_schedule(mu)) == tuple(expect)
