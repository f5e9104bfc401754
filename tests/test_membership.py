import gc
import json
import os
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitideals import membership
from orbitideals.linalg import TriangularBasis, apply_functional
from orbitideals.membership import (
    MEMBER,
    NON_MEMBER,
    GradedPiece,
    ideal_contains,
    scheduled_generators,
    verify_minimal,
    verify_minor_space_certificate,
    verify_redundant,
)
from orbitideals.minors import minor_sum_basis, prefixed_minor_sum, principal_minor_sum
from orbitideals.partitions import Partition, excluded_depths, minimal_schedule, partitions_of
from orbitideals.polyring import Polynomial, mon_weight, monomials_of_degree, term_key
from orbitideals.schur import layer_basis

LARGE = os.environ.get("ORBIT_IDEALS_LARGE") == "1"


def records(terms) -> list:
    """A functional {monomial: coeff} as a verdict prints it."""
    return [{"monomial": [[*v, e] for v, e in mon], "coeff": str(c)} for mon, c in terms.items()]


def functional_of(verdict) -> dict:
    """The functional a non-member verdict prints, as {monomial: coeff}."""
    return {tuple(((r, c), e) for r, c, e in t["monomial"]): Fraction(t["coeff"]) for t in verdict["functional"]}


def test_member_by_construction():
    g = principal_minor_sum(3, 2)
    f = g.times_monomial((((1, 2), 1),))
    verdict = ideal_contains(f, [g])
    assert verdict["status"] == MEMBER
    assert verdict["combination"] == [{"gen": 0, "monomial": [[1, 2, 1]], "coeff": "1"}]
    piece = GradedPiece(3, [g], 3)
    assert piece.verify(f, verdict)


def test_trivial_non_member_empty_piece():
    g = principal_minor_sum(3, 2)
    f = Polynomial.variable(3, 1, 2)
    verdict = ideal_contains(f, [g])
    assert verdict["status"] == NON_MEMBER
    piece = GradedPiece(3, [g], 1)
    # every block of the degree-1 piece is empty, not only those built so far
    weights = {mon_weight(3, m) for m in monomials_of_degree(3, 1)}
    assert all(list(piece._block_multipliers(w)) == [] for w in weights)
    assert piece.contains(f)["status"] == NON_MEMBER
    assert piece.nonzeros == 0 and piece.rows == []
    assert piece.verify(f, verdict)


def test_zero_candidate_is_member():
    verdict = ideal_contains(Polynomial.zero(3), [principal_minor_sum(3, 1)])
    assert verdict["status"] == MEMBER
    assert verdict["combination"] == []


def test_degree_mismatch_rejected():
    piece = GradedPiece(3, [principal_minor_sum(3, 1)], 2)
    with pytest.raises(ValueError):
        piece.contains(principal_minor_sum(3, 3))


def test_non_member_functional_certificate():
    t1 = principal_minor_sum(3, 1)
    f = Polynomial.variable(3, 1, 2) * Polynomial.variable(3, 2, 1)
    verdict = ideal_contains(f, [t1])
    assert verdict["status"] == NON_MEMBER
    lam = functional_of(verdict)
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
        bad = {**verdict, "functional": verdict["functional"] + records({extra: 1})}
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
    uncertified = {"status": "consistent_non_member"}
    assert not GradedPiece(3, [t1], 2).verify(f, uncertified)
    # verify_minimal accepts an invariant only with a functional certificate
    monkeypatch.setattr(membership, "ideal_contains", lambda f, gens: uncertified)
    report = verify_minimal(Partition((3,)))
    assert [c["ok"] for c in report["checks"]] == [False, False, False]
    assert not report["ok"]


def _without_certificate(verdict):
    return {"status": verdict["status"]}


def _first_coefficient_zeroed(verdict):
    first, *rest = verdict["functional"]
    return {**verdict, "functional": [{**first, "coeff": "0"}, *rest]}


@pytest.mark.parametrize("forge", [_without_certificate, _first_coefficient_zeroed])
def test_invariant_check_rests_on_its_certificate(monkeypatch, forge):
    # a `non_member` status alone does not pass: each invariant verdict of
    # (3) is re-checked, and a missing or altered functional fails
    assert verify_minimal(Partition((3,)))["ok"]
    honest = membership.ideal_contains
    monkeypatch.setattr(membership, "ideal_contains", lambda f, gens: forge(honest(f, gens)))
    report = verify_minimal(Partition((3,)))
    assert [(c["kind"], c["status"], c["ok"]) for c in report["checks"]] == [("invariant", "unverified", False)] * 3
    assert not report["ok"]


def _first_combination_zeroed(verdict):
    first, *rest = verdict["combination"]
    return {**verdict, "combination": [{**first, "coeff": "0"}, *rest]}


@pytest.mark.parametrize("forge", [_without_certificate, _first_combination_zeroed])
def test_excluded_check_rests_on_its_certificates(monkeypatch, forge):
    # a `member` status alone does not pass: every combination of the
    # excluded depth 2 of (2,2,1) is re-checked, and one forged fails
    mu = Partition((2, 2, 1))
    assert verify_minimal(mu)["ok"]
    honest = membership.verify_redundant

    def forged(mu, i):
        report = honest(mu, i)
        first, *rest = report["verdicts"]
        return {**report, "verdicts": [forge(first), *rest]}

    monkeypatch.setattr(membership, "verify_redundant", forged)
    report = verify_minimal(mu)
    (check,) = [c for c in report["checks"] if c["kind"] == "excluded"]
    assert (check["i"], check["status"], check["ok"]) == (2, "unverified", False)
    assert check["detail"] == {"zero_space": False, "candidates": 75}
    assert not report["ok"]


def test_verify_rel1_needs_two_rows():
    for n in (1, 0):
        with pytest.raises(ValueError):
            membership.verify_rel1(n)


def test_rel1_members_and_t1_non_member_reverify():
    gens = minor_sum_basis(3, 1, 2)
    piece = GradedPiece(3, gens, 3)
    for c in minor_sum_basis(3, 1, 3):
        verdict = piece.contains(c)
        assert verdict["status"] == MEMBER
        assert piece.verify(c, verdict)

    t1 = principal_minor_sum(3, 1)
    f = Polynomial.variable(3, 1, 2) * Polynomial.variable(3, 2, 1)
    verdict = ideal_contains(f, [t1])
    assert verdict["status"] == NON_MEMBER
    assert GradedPiece(3, [t1], 2).verify(f, verdict)


def test_depth_two_member_certificate_reverifies():
    gens = minor_sum_basis(4, 2, 2)
    piece = GradedPiece(4, gens, 3)
    cand = minor_sum_basis(4, 2, 3)[0]
    verdict = piece.contains(cand)
    assert verdict["status"] == MEMBER
    assert piece.verify(cand, verdict)


def test_verify_redundant_zero_space():
    report = verify_redundant(Partition((2, 2)), 2)
    assert report["zero_space"] and report["all_member"]
    assert report["verdicts"] == [] and report["candidates"] == 0


def test_verify_redundant_rejects_scheduled_depth():
    with pytest.raises(ValueError):
        verify_redundant(Partition((2, 1, 1)), 2)  # scheduled, not excluded


def test_verify_redundant_nonzero_case():
    # depth 2 of (2,2,1) is excluded with a nonzero space: a genuine oracle run
    report = verify_redundant(Partition((2, 2, 1)), 2)
    assert not report["zero_space"]
    assert len(report["verdicts"]) == report["candidates"] == 75
    assert report["all_member"]
    assert_printed_members_reverify(Partition((2, 2, 1)), 2, report)


def test_pieces_are_freed_by_reference_counting():
    # verify_redundant drops its piece when it returns; a reference cycle
    # would leave the blocks to the cyclic collector and raise the peak
    # memory of redundancy runs
    _, gens = scheduled_generators(Partition((2, 2, 1)), before_depth=2)
    cases = ((False, layer_basis(5, 2, 3)[0]), (True, principal_minor_sum(5, 3)))
    gc.disable()
    try:
        for diagonal, candidate in cases:
            piece = GradedPiece(5, gens, 3, diagonal=diagonal)
            piece.contains(candidate)
            block = next(iter(piece._blocks.values()))
            assert block.rank > 0
            refs = [weakref.ref(piece), weakref.ref(block)]
            del piece, block
            assert [r() for r in refs] == [None, None], diagonal
    finally:
        gc.enable()


def test_verify_redundant_rectangle():
    # rectangles exclude every depth >= 2; the smallest nonzero case is n=6
    report = verify_redundant(Partition((2, 2, 2)), 2)
    assert not report["zero_space"]
    assert len(report["verdicts"]) == report["candidates"] == 189
    assert report["all_member"]
    assert_printed_members_reverify(Partition((2, 2, 2)), 2, report)
    report3 = verify_redundant(Partition((2, 2, 2)), 3)
    assert report3["zero_space"] and report3["all_member"]
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
    assert report["ok"]
    kinds = {c["kind"] for c in report["checks"]}
    assert kinds == {"invariant"}
    assert all(c["status"] == NON_MEMBER for c in report["checks"])


def test_verify_minimal_two_two():
    report = verify_minimal(Partition((2, 2)))
    assert report["ok"]
    by_kind = {}
    for c in report["checks"]:
        by_kind.setdefault(c["kind"], []).append(c)
    assert [(c["i"], c["p"]) for c in by_kind["minor_space"]] == [(1, 2)]
    assert [(c["i"], c["p"]) for c in by_kind["excluded"]] == [(2, 3)]
    assert by_kind["excluded"][0]["detail"]["zero_space"] is True


def test_verify_minimal_point_certificates_reverify():
    mu = Partition((2, 1, 1))
    report = verify_minimal(mu)
    assert report["ok"]
    minor_checks = [c for c in report["checks"] if c["kind"] == "minor_space"]
    assert [(c["i"], c["p"]) for c in minor_checks] == [(1, 2), (2, 2)]
    for c in minor_checks:
        assert c["status"] == NON_MEMBER
        assert verify_minor_space_certificate(mu, c["i"], c["detail"])


def test_verify_minimal_all_small_partitions():
    for n in range(1, 5):
        for mu in partitions_of(n):
            report = verify_minimal(mu)
            assert report["ok"], (mu, [c for c in report["checks"] if not c["ok"]])


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
        assert report["ok"], (mu, [c for c in report["checks"] if not c["ok"]])
    # the last report is that of (5,): its t_5 verdict is certified on the
    # diagonal slice, and the full piece accepts the same functional
    t5_check = next(c for c in report["checks"] if c["kind"] == "invariant" and c["p"] == 5)
    assert t5_check["status"] == NON_MEMBER
    labels, gens = scheduled_generators(Partition((5,)))
    others = [g for lbl, g in zip(labels, gens) if lbl != "t_5"]
    t5 = principal_minor_sum(5, 5)
    piece = GradedPiece(5, others, 5, diagonal=True)
    verdict = piece.contains(t5)
    assert verdict["slice"] == "diagonal"
    # rho(t_q) * m for the diagonal m of degree 5 - q: 70 + 35 + 15 + 5 rows
    assert len(piece.rows) == 125
    assert verdict == t5_check["detail"]
    assert GradedPiece(5, others, 5).verify(t5, verdict)


def test_verify_minimal_regular_orbit_n6():
    report = verify_minimal(Partition((6,)))
    assert report["ok"]
    assert [(c["kind"], c["p"], c["status"]) for c in report["checks"]] == [
        ("invariant", p, NON_MEMBER) for p in range(1, 7)
    ]


def assert_printed_members_reverify(mu: Partition, i: int, report: dict):
    """Each member combination a redundancy report prints recombines its
    candidate exactly in a fresh piece."""
    candidates = layer_basis(mu.n, i, report["p"])
    assert len(candidates) == len(report["verdicts"]) == report["candidates"], (mu, i)
    _, gens = scheduled_generators(mu, before_depth=i)
    piece = GradedPiece(mu.n, gens, report["p"])
    for cand, v in zip(candidates, report["verdicts"]):
        assert v["status"] == MEMBER, (mu, i)
        assert piece.verify(cand, v), (mu, i)


def test_invariant_functionals_hold_on_full_pieces():
    """Every invariant check is certified on the diagonal slice, and the
    functional it prints also vanishes on the full weight-0 block: the
    restriction argument, checked by brute force."""
    for n in range(1, 7 if LARGE else 6):
        for mu in partitions_of(n):
            report = verify_minimal(mu)
            labels, gens = scheduled_generators(mu)
            for c in report["checks"]:
                if c["kind"] != "invariant":
                    continue
                assert c["status"] == NON_MEMBER and c["detail"]["slice"] == "diagonal", (mu, c["p"])
                k = labels.index(f"t_{c['p']}")
                piece = GradedPiece(n, gens[:k] + gens[k + 1 :], c["p"])
                assert piece.verify(gens[k], c["detail"]), (mu, c["p"])


def test_invariants_at_n7_are_certified_on_the_slice():
    """The frontier: every invariant check of every mu of 7 (n = 6 without
    ORBIT_IDEALS_LARGE), the loop of `verify_minimal` without its
    redundancy checks."""
    n = 7 if LARGE else 6
    checks = 0
    for mu in partitions_of(n):
        _, gens = scheduled_generators(mu)
        for k, p in enumerate(p for i, p in minimal_schedule(mu) if not i):
            verdict = ideal_contains(gens[k], gens[:k] + gens[k + 1 :])
            assert verdict["status"] == NON_MEMBER and verdict["slice"] == "diagonal", (mu, p)
            checks += 1
    assert checks == (54 if LARGE else 35)


def test_slice_member_falls_back_to_the_weight_blocks():
    t1 = principal_minor_sum(3, 1)
    f = Polynomial.variable(3, 1, 2) * Polynomial.variable(3, 2, 1)
    # rho(f) = 0, so the slice proves nothing
    assert GradedPiece(3, [t1], 2, diagonal=True).contains(f) is None
    verdict = ideal_contains(f, [t1])
    assert verdict["status"] == NON_MEMBER and "slice" not in verdict
    assert any(r != c for t in verdict["functional"] for r, c, _ in t["monomial"])
    assert GradedPiece(3, [t1], 2).verify(f, verdict)


def test_member_through_ideal_contains_keeps_its_combination():
    g = principal_minor_sum(3, 2)
    x11 = (((1, 1), 1),)
    f = g.times_monomial(x11)  # rho(f) = e_2 * x11 is a slice member
    assert GradedPiece(3, [g], 3, diagonal=True).contains(f) is None
    verdict = ideal_contains(f, [g])
    assert verdict == GradedPiece(3, [g], 3).contains(f)
    assert verdict["combination"] == [{"gen": 0, "monomial": [[1, 1, 1]], "coeff": "1"}]
    assert "slice" not in verdict
    assert GradedPiece(3, [g], 3).verify(f, verdict)


def test_slice_functional_is_checked_on_the_slice_rows():
    _, gens = scheduled_generators(Partition((3,)))
    t3, others = gens[2], gens[:2]
    piece = GradedPiece(3, others, 3, diagonal=True)
    verdict = piece.contains(t3)
    assert verdict["status"] == NON_MEMBER and verdict["slice"] == "diagonal"
    assert all(r == c for t in verdict["functional"] for r, c, _ in t["monomial"])
    assert piece.verify(t3, verdict)
    full = GradedPiece(3, others, 3)
    assert full.verify(t3, verdict)
    # nonzero on the slice row rho(t_1) * x11^2 = x11^3 + x11^2 x22 + x11^2 x33
    lam = functional_of(verdict)
    x11_3 = (((1, 1), 3),)
    lam[x11_3] = lam.get(x11_3, 0) + 1
    tampered = {"status": NON_MEMBER, "functional": records(lam), "slice": "diagonal"}
    assert apply_functional(lam, t3.terms) != 0
    assert not piece.verify(t3, tampered)
    assert not full.verify(t3, tampered)
    # the slice rows say nothing off the diagonal, so such support is refused
    off = (((1, 1), 1), ((1, 2), 1), ((2, 1), 1))  # not a term of t_3
    widened = {**verdict, "functional": verdict["functional"] + records({off: 1})}
    assert apply_functional(functional_of(widened), t3.terms) != 0
    assert not piece.verify(t3, widened)
    assert not full.verify(t3, widened)  # nonzero on t_1 * x12 x21


def test_depth_one_uses_longer_block_witness():
    report = verify_minimal(Partition((2, 2)))
    c = next(ch for ch in report["checks"] if ch["kind"] == "minor_space")
    assert c["detail"]["witness"] == "3,1"


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
    assert verdict["status"] == MEMBER
    piece = GradedPiece(3, gens, 3)
    assert piece.verify(f, verdict)


def test_every_printed_verdict_reverifies_after_a_json_round_trip():
    """`verify` checks the certificate as printed: every verdict of
    `verify_minimal` (mu of n <= 5) and of `verify_redundant` (every
    excluded depth there), read back by `json.loads`."""
    read_back = lambda v: json.loads(json.dumps(v))
    checked = {MEMBER: 0, NON_MEMBER: 0}
    for n in range(1, 6):
        for mu in partitions_of(n):
            labels, gens = scheduled_generators(mu)
            for c in verify_minimal(mu)["checks"]:
                if c["kind"] == "invariant":
                    k = labels.index(f"t_{c['p']}")
                    piece = GradedPiece(n, gens[:k] + gens[k + 1 :], c["p"], diagonal=True)
                    assert piece.verify(gens[k], read_back(c["detail"])), (mu, c["p"])
                    checked[c["detail"]["status"]] += 1
            for i in excluded_depths(mu):
                report = verify_redundant(mu, i)
                _, earlier = scheduled_generators(mu, before_depth=i)
                piece = GradedPiece(n, earlier, report["p"])
                for cand, v in zip(layer_basis(n, i, report["p"]), report["verdicts"]):
                    assert piece.verify(cand, read_back(v)), (mu, i)
                    checked[v["status"]] += 1
    assert checked == {MEMBER: 75, NON_MEMBER: 42}


def test_unreadable_or_altered_certificates_are_rejected():
    g = principal_minor_sum(3, 2)
    f = g.times_monomial((((1, 2), 1),))
    member = ideal_contains(f, [g])
    piece = GradedPiece(3, [g], 3)
    term = member["combination"][0]
    broken_terms = [
        {**term, "coeff": "2"},
        {**term, "gen": 1},
        {**term, "gen": -1},
        {**term, "monomial": [[1, 4, 1]]},
        {**term, "monomial": [[0, 2, 1]]},
        {**term, "coeff": "x"},
        {"monomial": term["monomial"], "coeff": term["coeff"]},
    ]
    for t in broken_terms:
        assert piece.verify(f, {**member, "combination": [t]}) is False, t
    for junk in (None, [], "member", {"status": MEMBER}, {"status": MEMBER, "combination": None}):
        assert piece.verify(f, junk) is False, junk

    _, gens = scheduled_generators(Partition((3,)))
    t3, others = gens[2], gens[:2]
    slice_piece = GradedPiece(3, others, 3, diagonal=True)
    non_member = slice_piece.contains(t3)
    first, rest = non_member["functional"][0], non_member["functional"][1:]
    broken_firsts = [
        {**first, "coeff": str(Fraction(first["coeff"]) + 1)},
        {**first, "monomial": [[4, 4, 3]]},
        {**first, "monomial": [[0, 0, 3]]},
        {**first, "coeff": "x"},
        {**first, "coeff": "1/0"},
    ]
    for t in broken_firsts:
        assert slice_piece.verify(t3, {**non_member, "functional": [t] + rest}) is False, t
    assert slice_piece.verify(t3, {"status": NON_MEMBER, "slice": "diagonal"}) is False
    # the certificates as printed pass
    assert piece.verify(f, member) and slice_piece.verify(t3, non_member)


def test_functional_not_in_printed_form_is_rejected():
    # an entry whose monomial no row can match used to be ignored, and a
    # monomial listed twice kept its last coefficient; perfbench's checker
    # reads such a certificate differently, so verify refuses it
    _, gens = scheduled_generators(Partition((3,)))
    t3, others = gens[2], gens[:2]
    piece = GradedPiece(3, others, 3, diagonal=True)
    honest = ideal_contains(t3, others)
    assert honest["slice"] == "diagonal" and piece.verify(t3, honest)
    functional = honest["functional"]
    forged = [
        functional + [{"monomial": [[2, 2, 1], [1, 1, 2]], "coeff": "7"}],  # triples out of order
        functional + [{"monomial": [[1, 1, 1], [1, 1, 1], [2, 2, 1]], "coeff": "7"}],  # a repeated variable
        [{**functional[0], "coeff": "99"}] + functional,  # one monomial named twice
    ]
    for f in forged:
        assert piece.verify(t3, {**honest, "functional": f}) is False, f
    # the out-of-order entry with its triples sorted is read, and fails
    in_order = functional + [{"monomial": [[1, 1, 2], [2, 2, 1]], "coeff": "7"}]
    assert piece.verify(t3, {**honest, "functional": in_order}) is False


# -- torus-weight blocks against the whole graded piece -----------------------


def whole_piece_verdict(n, gens, f):
    """Reference oracle: eliminate every row g * m of the degree piece in one
    TriangularBasis, in piece order, and derive the certificate from it.
    Rows are built in monomial space by `times_monomial`; each monomial is
    then mapped to its `term_key` column."""
    key = lambda mon: term_key(n, mon)
    mon_of = {}

    def columns(terms):
        mon_of.update((key(m), m) for m in terms)
        return {key(m): c for m, c in terms.items()}

    basis = TriangularBasis(track=True)
    rows = []
    for gi, g in enumerate(gens):
        if g.is_zero() or g.degree > f.degree:
            continue
        for m in monomials_of_degree(n, f.degree - g.degree):
            rows.append(g.times_monomial(m).terms)
            basis.insert(columns(rows[-1]), (gi, m))
    residual, combo = basis.reduce(columns(f.terms))
    if not residual:
        prov = basis.provenance_of(combo)
        items = [(gi, m, Fraction(c)) for (gi, m), c in prov.items() if c]
        items.sort(key=lambda t: (t[0], key(t[1])))
        combination = [{"gen": gi, "monomial": [[*v, e] for v, e in m], "coeff": str(c)} for gi, m, c in items]
        return {"status": MEMBER, "combination": combination}, rows
    lam = basis.annihilator(max(residual))
    functional = records({mon_of[col]: c for col, c in sorted(lam.items(), reverse=True)})
    return {"status": NON_MEMBER, "functional": functional}, rows


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
    if verdict["status"] == NON_MEMBER:
        lam = functional_of(verdict)
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


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([3, 4]),
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
    st.integers(0, 4),
    st.booleans(),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 999), st.integers(-3, 3)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 9999), st.integers(-2, 2)), max_size=2),
)
def test_grown_piece_matches_one_shot(n, picks, cut, inhomogeneous, diagonal, products, extras):
    # generators added one at a time, after blocks of the earlier ones were
    # built, give the verdicts of a piece built with them all at once
    homogeneous, odd = generator_pool(n)
    gens = [homogeneous[k] for k in picks] + ([odd] if inhomogeneous else [])
    cut %= len(gens)
    degree = 3
    top = monomials_of_degree(n, degree)
    candidates = []
    for gk, mk, c in products:  # one candidate per product, plus the extras
        g = gens[gk % len(gens)]
        mons = monomials_of_degree(n, degree - g.degree)
        f = g.times_monomial(mons[mk % len(mons)]) * c
        for ek, ec in extras:
            f = f + Polynomial(n, {top[ek % len(top)]: ec})
        candidates.append(f)
    grown = GradedPiece(n, gens[:cut], degree, diagonal=diagonal)
    for k in range(cut, len(gens) + 1):
        if k > cut:
            grown.add(gens[k - 1 : k])
        whole = GradedPiece(n, gens[:k], degree, diagonal=diagonal)
        assert grown.gens == whole.gens
        for f in candidates:
            verdict = grown.contains(f)
            assert verdict == whole.contains(f)
            if verdict is not None:
                assert whole.verify(f, verdict)
    assert sorted(grown.rows) == sorted(whole.rows)


def test_inhomogeneous_generator_added_last_drops_the_blocks():
    homogeneous, odd = generator_pool(3)
    f = principal_minor_sum(3, 2) + Polynomial.variable(3, 1, 1) * Polynomial.variable(3, 2, 3)
    piece = GradedPiece(3, [homogeneous[0]], 2)
    assert piece.contains(f)["status"] == NON_MEMBER
    assert len(piece._blocks) > 1
    piece.add([odd])
    assert (piece._blocks, piece.rows, piece.nonzeros) == ({}, [], 0)
    verdict = piece.contains(f)
    assert verdict == GradedPiece(3, [homogeneous[0], odd], 2).contains(f)
    assert list(piece._blocks) == [()] and len(piece.rows) == 2 * 9


def test_mixed_weight_candidate_uses_the_failing_block():
    t1 = principal_minor_sum(3, 1)
    x12, x21 = Polynomial.variable(3, 1, 2), Polynomial.variable(3, 2, 1)
    member_part = t1 * x12  # weight e1 - e2
    outside_part = x12 * x21  # weight 0, not in <t1>
    piece, verdict = assert_blocks_match_whole_piece(3, [t1], member_part + outside_part)
    assert verdict["status"] == NON_MEMBER
    assert {mon_weight(3, m) for m in functional_of(verdict)} == {(0, 0, 0)}
    # only the blocks the candidate meets were built: t1 times x11, x22, x33
    # and t1 times x12, not all 9 rows
    assert len(piece.rows) == 3 + 1
    _, verdict = assert_blocks_match_whole_piece(3, [t1], member_part + t1 * x21)
    assert verdict["status"] == MEMBER


def test_inhomogeneous_generator_gives_one_block():
    homogeneous, odd = generator_pool(3)
    f = principal_minor_sum(3, 2) + Polynomial.variable(3, 1, 1) * Polynomial.variable(3, 2, 3)
    piece, _ = assert_blocks_match_whole_piece(3, [homogeneous[0], odd], f)
    assert len(piece.rows) == 2 * 9  # both generators times every degree-1 monomial
