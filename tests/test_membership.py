from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitideals import membership
from orbitideals.linalg import TriangularBasis, apply_functional
from orbitideals.membership import (
    MEMBER,
    NON_MEMBER,
    GradedPiece,
    MembershipVerdict,
    ideal_contains,
    scheduled_generators,
    verify_minimal,
    verify_minor_space_certificate,
    verify_redundant,
)
from orbitideals.minors import minor_sum_basis, prefixed_minor_sum, principal_minor_sum
from orbitideals.partitions import Partition, partitions_of
from orbitideals.polyring import Polynomial, mon_weight, monomials_of_degree, term_key


def test_member_by_construction():
    g = principal_minor_sum(3, 2)
    f = g.times_monomial((((1, 2), 1),))
    verdict = ideal_contains(f, [g])
    assert verdict.status == MEMBER
    assert verdict.combination == ((0, (((1, 2), 1),), Fraction(1)),)
    piece = GradedPiece(3, [g], 3)
    assert piece.verify(f, verdict)


def test_trivial_non_member_empty_piece():
    g = principal_minor_sum(3, 2)
    f = Polynomial.variable(3, 1, 2)
    verdict = ideal_contains(f, [g])
    assert verdict.status == NON_MEMBER
    piece = GradedPiece(3, [g], 1)
    # every block of the degree-1 piece is empty, not only those built so far
    weights = {mon_weight(3, m) for m in monomials_of_degree(3, 1)}
    assert all(piece._block_rows(w) == [] for w in weights)
    assert piece.contains(f).status == NON_MEMBER
    assert piece.nonzeros == 0 and piece.rows == []
    assert piece.verify(f, verdict)


def test_zero_candidate_is_member():
    verdict = ideal_contains(Polynomial.zero(3), [principal_minor_sum(3, 1)])
    assert verdict.status == MEMBER
    assert verdict.combination == ()


def test_degree_mismatch_rejected():
    piece = GradedPiece(3, [principal_minor_sum(3, 1)], 2)
    with pytest.raises(ValueError):
        piece.contains(principal_minor_sum(3, 3))


def test_rel1_echo_n3():
    gens = minor_sum_basis(3, 1, 2)
    piece = GradedPiece(3, gens, 3)
    for c in minor_sum_basis(3, 1, 3):
        verdict = piece.contains(c)
        assert verdict.status == MEMBER
        assert piece.verify(c, verdict)


def test_non_member_functional_certificate():
    t1 = principal_minor_sum(3, 1)
    f = Polynomial.variable(3, 1, 2) * Polynomial.variable(3, 2, 1)
    verdict = ideal_contains(f, [t1])
    assert verdict.status == NON_MEMBER
    lam = dict(verdict.functional)
    # every row t1 * m of the degree-2 piece, built here rather than read
    # from a piece, whose blocks are built only on demand
    rows = [t1.times_monomial(m).terms for m in monomials_of_degree(3, 1)]
    assert len(rows) == 9
    assert all(apply_functional(lam, terms) == 0 for terms in rows)
    piece = GradedPiece(3, [t1], 2)
    assert apply_functional(lam, f.terms) != 0
    assert piece.verify(f, verdict)
    # a functional that is nonzero on a row t1 * m is rejected, whether that
    # row lies in f's weight block (t1 * x11) or in another (t1 * x12)
    for extra in ((((1, 1), 2),), (((1, 1), 1), ((1, 2), 1))):
        bad = MembershipVerdict(NON_MEMBER, functional=verdict.functional + ((extra, Fraction(1)),))
        assert not piece.verify(f, bad)


def test_member_certificate_fails_on_tampering():
    g = principal_minor_sum(3, 2)
    f = g.times_monomial((((1, 2), 1),))
    verdict = ideal_contains(f, [g])
    piece = GradedPiece(3, [g], 3)
    tampered = f + g.times_monomial((((1, 1), 1),))
    assert not piece.verify(tampered, verdict)


def test_verdict_without_certificate_is_rejected(monkeypatch):
    t1 = principal_minor_sum(3, 1)
    f = Polynomial.variable(3, 1, 2) * Polynomial.variable(3, 2, 1)
    uncertified = MembershipVerdict("consistent_non_member")
    assert not GradedPiece(3, [t1], 2).verify(f, uncertified)
    # verify_minimal accepts an invariant only with a functional certificate
    monkeypatch.setattr(membership, "ideal_contains", lambda f, gens: uncertified)
    report = verify_minimal(Partition((3,)))
    assert [c.ok for c in report.checks] == [False, False, False]
    assert not report.ok


def test_rel1_members_and_t1_non_member_reverify():
    gens = minor_sum_basis(3, 1, 2)
    piece = GradedPiece(3, gens, 3)
    for c in minor_sum_basis(3, 1, 3):
        verdict = piece.contains(c)
        assert verdict.status == MEMBER
        assert piece.verify(c, verdict)

    t1 = principal_minor_sum(3, 1)
    f = Polynomial.variable(3, 1, 2) * Polynomial.variable(3, 2, 1)
    verdict = ideal_contains(f, [t1])
    assert verdict.status == NON_MEMBER
    assert GradedPiece(3, [t1], 2).verify(f, verdict)


def test_depth_two_member_certificate_reverifies():
    gens = minor_sum_basis(4, 2, 2)
    piece = GradedPiece(4, gens, 3)
    cand = minor_sum_basis(4, 2, 3)[0]
    verdict = piece.contains(cand)
    assert verdict.status == MEMBER
    assert piece.verify(cand, verdict)


def test_verify_redundant_zero_space():
    report = verify_redundant(Partition((2, 2)), 2)
    assert report.zero_space and report.all_member
    assert report.verdicts == ()


def test_verify_redundant_rejects_scheduled_depth():
    with pytest.raises(ValueError):
        verify_redundant(Partition((2, 1, 1)), 2)  # scheduled, not excluded


def test_verify_redundant_nonzero_case():
    # depth 2 of (2,2,1) is excluded with a nonzero space: a genuine oracle run
    report = verify_redundant(Partition((2, 2, 1)), 2)
    assert not report.zero_space
    assert len(report.verdicts) == 75
    assert report.all_member


def test_verify_redundant_rectangle():
    # rectangles exclude every depth >= 2; the smallest nonzero case is n=6
    report = verify_redundant(Partition((2, 2, 2)), 2)
    assert not report.zero_space
    assert len(report.verdicts) == 189
    assert report.all_member
    report3 = verify_redundant(Partition((2, 2, 2)), 3)
    assert report3.zero_space and report3.all_member
    labels, gens = scheduled_generators(Partition((2, 2, 1)), before_depth=2)
    assert labels[:2] == ["t_1", "t_2"]
    # invariants plus the depth-1 layer (the 25-dim family minus the t_2 line)
    assert len(gens) == 2 + 24


def test_scheduled_generators_labels():
    labels, gens = scheduled_generators(Partition((2, 1)))
    assert labels[0] == "t_1" and labels[1] == "t_2"
    assert len(labels) == len(gens) == 2 + 8
    labels_before, _ = scheduled_generators(Partition((2, 1)), before_depth=1)
    assert labels_before == ["t_1", "t_2"]


def test_verify_minimal_kostant_case():
    report = verify_minimal(Partition((4,)))
    assert report.ok
    kinds = {c.kind for c in report.checks}
    assert kinds == {"invariant"}
    assert all(c.status == NON_MEMBER for c in report.checks)


def test_verify_minimal_two_two():
    report = verify_minimal(Partition((2, 2)))
    assert report.ok
    by_kind = {}
    for c in report.checks:
        by_kind.setdefault(c.kind, []).append(c)
    assert [(c.i, c.p) for c in by_kind["minor_space"]] == [(1, 2)]
    assert [(c.i, c.p) for c in by_kind["excluded"]] == [(2, 3)]
    assert by_kind["excluded"][0].detail["zero_space"] is True


def test_verify_minimal_point_certificates_reverify():
    mu = Partition((2, 1, 1))
    report = verify_minimal(mu)
    assert report.ok
    minor_checks = [c for c in report.checks if c.kind == "minor_space"]
    assert [(c.i, c.p) for c in minor_checks] == [(1, 2), (2, 2)]
    for c in minor_checks:
        assert c.status == NON_MEMBER
        assert verify_minor_space_certificate(mu, c.i, c.detail)


def test_verify_minimal_all_small_partitions():
    for n in range(1, 5):
        for mu in partitions_of(n):
            report = verify_minimal(mu)
            assert report.ok, (mu, [c.as_dict() for c in report.checks if not c.ok])


def test_verify_minimal_curated_larger_partitions():
    curated = [
        Partition((4, 1)),
        Partition((3, 2)),
        Partition((3, 1, 1)),
        Partition((2, 2, 1)),
        Partition((2, 1, 1, 1)),
        Partition((1, 1, 1, 1, 1)),
        Partition((2, 2, 1, 1)),
        Partition((3, 2, 1)),
        Partition((5,)),
    ]
    for mu in curated:
        report = verify_minimal(mu)
        assert report.ok, (mu, [c.as_dict() for c in report.checks if not c.ok])
    # the last report is that of (5,): its t_5 verdict has an exact certificate
    t5_check = next(c for c in report.checks if c.kind == "invariant" and c.p == 5)
    assert t5_check.status == NON_MEMBER
    labels, gens = scheduled_generators(Partition((5,)))
    others = [g for lbl, g in zip(labels, gens) if lbl != "t_5"]
    t5 = principal_minor_sum(5, 5)
    piece = GradedPiece(5, others, 5)
    verdict = piece.contains(t5)
    assert verdict.as_dict() == t5_check.detail
    assert piece.verify(t5, verdict)


def test_verify_minimal_regular_orbit_n6():
    report = verify_minimal(Partition((6,)))
    assert report.ok
    assert [(c.kind, c.p, c.status) for c in report.checks] == [
        ("invariant", p, NON_MEMBER) for p in range(1, 7)
    ]


def test_depth_one_uses_longer_block_witness():
    report = verify_minimal(Partition((2, 2)))
    c = next(ch for ch in report.checks if ch.kind == "minor_space")
    assert c.detail["witness"] == "3,1"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
def test_random_combinations_are_members(coeffs):
    gens = [principal_minor_sum(3, 1), principal_minor_sum(3, 2)]
    multipliers = [
        (0, monomials_of_degree(3, 2)[0]),
        (0, monomials_of_degree(3, 2)[7]),
        (1, monomials_of_degree(3, 1)[0]),
        (1, monomials_of_degree(3, 1)[5]),
    ]
    f = Polynomial.zero(3)
    for c, (gi, mon) in zip(coeffs, multipliers):
        f = f + gens[gi].times_monomial(mon) * c
    verdict = ideal_contains(f, gens)
    assert verdict.status == MEMBER
    piece = GradedPiece(3, gens, 3)
    assert piece.verify(f, verdict)


def test_verdict_as_dict_round_trips_to_json():
    import json

    g = principal_minor_sum(3, 2)
    f = g.times_monomial((((1, 2), 1),))
    verdict = ideal_contains(f, [g])
    encoded = json.dumps(verdict.as_dict(), sort_keys=True)
    decoded = json.loads(encoded)
    assert decoded["status"] == "member"
    assert decoded["combination"][0]["coeff"] == "1"


# -- torus-weight blocks against the whole graded piece -----------------------


def whole_piece_verdict(n, gens, f):
    """Reference oracle: eliminate every row g * m of the degree piece in one
    TriangularBasis, in piece order, and derive the certificate from it."""
    key = lambda mon: term_key(n, mon)
    basis = TriangularBasis(key, track=True)
    rows = []
    for gi, g in enumerate(gens):
        if g.is_zero() or g.degree > f.degree:
            continue
        for m in monomials_of_degree(n, f.degree - g.degree):
            rows.append(g.times_monomial(m).terms)
            basis.insert(rows[-1], (gi, m))
    residual, combo = basis.reduce(f.terms)
    if not residual:
        prov = basis.provenance_of(combo)
        items = [(gi, m, Fraction(c)) for (gi, m), c in prov.items() if c]
        items.sort(key=lambda t: (t[0], key(t[1])))
        return MembershipVerdict(MEMBER, combination=tuple(items)), rows
    lam = basis.annihilator(max(residual, key=key))
    functional = tuple(sorted(lam.items(), key=lambda t: key(t[0]), reverse=True))
    return MembershipVerdict(NON_MEMBER, functional=functional), rows


def generator_pool(n):
    """Torus-homogeneous generators of degrees 1 and 2, and one that is not."""
    x = lambda r, c: Polynomial.variable(n, r, c)
    homogeneous = [
        principal_minor_sum(n, 1),
        principal_minor_sum(n, 2),
        x(1, 2),
        prefixed_minor_sum(n, (1,), (2,), 2),
        prefixed_minor_sum(n, (2,), (3,), 2),
    ]
    return homogeneous, x(1, 1) + x(1, 2) + x(3, 1)


def assert_blocks_match_whole_piece(n, gens, f):
    piece = GradedPiece(n, gens, f.degree)
    verdict = piece.contains(f)
    reference, rows = whole_piece_verdict(n, gens, f)
    assert verdict == reference
    assert piece.verify(f, verdict)
    if verdict.status == NON_MEMBER:
        lam = dict(verdict.functional)
        assert all(apply_functional(lam, terms) == 0 for terms in rows)
    return piece, verdict


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([3, 4]),
    st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 999), st.integers(-3, 3)), max_size=4),
    st.lists(st.tuples(st.integers(0, 9999), st.integers(-2, 2)), max_size=3),
)
def test_blocks_match_whole_piece(n, picks, inhomogeneous, products, extras):
    homogeneous, odd = generator_pool(n)
    gens = [homogeneous[k] for k in picks] + ([odd] if inhomogeneous else [])
    degree = 3
    f = Polynomial.zero(n)
    for gk, mk, c in products:
        g = gens[gk % len(gens)]
        mons = monomials_of_degree(n, degree - g.degree)
        f = f + g.times_monomial(mons[mk % len(mons)]) * c
    top = monomials_of_degree(n, degree)
    for mk, c in extras:  # terms of any weight, usually making a non-member
        f = f + Polynomial(n, {top[mk % len(top)]: c})
    assert_blocks_match_whole_piece(n, gens, f)


def test_mixed_weight_candidate_uses_the_failing_block():
    t1 = principal_minor_sum(3, 1)
    x12, x21 = Polynomial.variable(3, 1, 2), Polynomial.variable(3, 2, 1)
    member_part = t1 * x12  # weight e1 - e2
    outside_part = x12 * x21  # weight 0, not in <t1>
    piece, verdict = assert_blocks_match_whole_piece(3, [t1], member_part + outside_part)
    assert verdict.status == NON_MEMBER
    assert {mon_weight(3, m) for m, _ in verdict.functional} == {(0, 0, 0)}
    # only the blocks the candidate meets were built: t1 times x11, x22, x33
    # and t1 times x12, not all 9 rows
    assert len(piece.rows) == 3 + 1
    _, verdict = assert_blocks_match_whole_piece(3, [t1], member_part + t1 * x21)
    assert verdict.status == MEMBER


def test_inhomogeneous_generator_gives_one_block():
    homogeneous, odd = generator_pool(3)
    f = principal_minor_sum(3, 2) + Polynomial.variable(3, 1, 1) * Polynomial.variable(3, 2, 3)
    piece, _ = assert_blocks_match_whole_piece(3, [homogeneous[0], odd], f)
    assert len(piece.rows) == 2 * 9  # both generators times every degree-1 monomial
