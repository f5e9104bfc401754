"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The large flagged runs (dimension law at n=5, vanishing at n<=15,
membership --rel1 and redundancy at n=7, verify minimal for every mu of 8)
are enabled by setting ORBIT_IDEALS_LARGE=1.
"""

import json
import os
import time
from math import comb

from orbitideals.cli import main
from orbitideals.membership import (
    MEMBER,
    NON_MEMBER,
    GradedPiece,
    verify_minimal,
    verify_minor_space_certificate,
    verify_redundant,
)
from orbitideals.minors import family_rank
from orbitideals.partitions import (
    Partition,
    excluded_depths,
    full_schedule,
    minimal_schedule,
    necessity_witness,
    parse_partition,
    partitions_of,
)
from orbitideals.orbit import check_vanishing
from test_membership import assert_printed_members_reverify, basis_tags

LARGE = os.environ.get("ORBIT_IDEALS_LARGE") == "1"

# structural analogues of the two worked examples at desk scale: the same
# depth-2 inclusion/exclusion mechanisms (strict drop vs repeat of part 1)
PAPER_ANALOGUES = (Partition((2, 1, 1)), Partition((2, 2, 1)))


def _report(criterion: str, elapsed: float):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


def _run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_schedule_reproduction(capsys):
    t0 = time.time()
    expected = {
        "3^2,2^2,1^5": {
            "invariants": [1, 2, 3],
            "minimal": [(1, 3), (3, 6), (5, 7), (6, 7), (7, 7)],
            "arrows": [1, 3, 5, 6, 7],
        },
        "4,2^3,1^5": {
            "invariants": [1, 2, 3, 4],
            "minimal": [(1, 4), (2, 5), (3, 6), (5, 7), (6, 7), (7, 7)],
            "arrows": [1, 2, 3, 5, 6, 7],
        },
    }
    for partition, want in expected.items():
        code, out = _run_cli(capsys, "schedule", "--partition", partition, "--json")
        assert code == 0
        code2, out2 = _run_cli(capsys, "schedule", "--partition", partition, "--json")
        assert out == out2  # byte-exact reproducibility
        report = json.loads(out)
        assert report["invariants"] == want["invariants"]
        assert [(d["i"], d["p"]) for d in report["minimal"]] == want["minimal"]
        assert report["arrows"] == want["arrows"]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("1 schedule reproduction", elapsed)


def test_criterion_2_witness_reproduction():
    t0 = time.time()
    w = necessity_witness(parse_partition("4,2^3,1^5"), 3)
    assert w == (3, 3, 3, 2, 1, 1, 1, 1)
    assert w.conjugate() == (8, 4, 3)
    for n in range(1, 13):
        for mu in partitions_of(n):
            for i, p in minimal_schedule(mu):
                if i < 2:
                    continue
                witness = necessity_witness(mu, i)
                assert witness.n == mu.n
                for j in range(1, i):
                    assert witness.critical_size(j) <= mu.critical_size(j)
                assert witness.critical_size(i) > p
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("2 witness reproduction", elapsed)


def test_criterion_3_dimension_law():
    t0 = time.time()
    sizes = tuple(range(2, 9 if LARGE else 8))
    for n in sizes:
        for p in range(1, n + 1):
            for i in range(0, n + 1):
                assert family_rank(n, i, p) == comb(n, min(i, p, n - p)) ** 2, (n, i, p)
    elapsed = time.time() - t0
    assert elapsed < (3600.0 if LARGE else 300.0)
    _report(f"3 dimension law (n in {sizes})", elapsed)


def test_criterion_4_vanishing():
    t0 = time.time()
    top = 15 if LARGE else 12
    for n in range(1, top + 1):
        for mu in partitions_of(n):
            for i, p in full_schedule(mu):
                assert check_vanishing(mu, i, p) is None, (mu, i, p)
            for i in range(1, len(mu) + 1):
                ci = mu.critical_size(i)
                if ci > i:
                    assert check_vanishing(mu, i, ci - 1) is not None, (mu, i, ci - 1)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(f"4 vanishing and sharpness (n <= {top})", elapsed)


def test_criterion_5_minimality():
    t0 = time.time()
    targets = [mu for n in range(1, 5) for mu in partitions_of(n)]
    targets += [mu for mu in PAPER_ANALOGUES if mu not in targets]
    for mu in targets:
        report = verify_minimal(mu)
        assert report["ok"], (mu, [c for c in report["checks"] if not c["ok"]])
        for check in report["checks"]:
            if check["kind"] == "minor_space":
                # a vanishing-point non-membership certificate that re-verifies
                assert check["status"] == NON_MEMBER
                assert "point" in check["detail"]
                assert verify_minor_space_certificate(mu, check["i"], check["detail"])
            elif check["kind"] == "invariant":
                assert check["status"] == NON_MEMBER
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report("5 minimality certificates", elapsed)


def test_criterion_5_minimality_at_n6_and_n7():
    # every mu of 6 in one sweep, then the two shapes of 7 whose excluded
    # depths are nonzero, each timed on its own; each nonzero excluded depth
    # is certified by highest-weight queries.  The large suite adds every
    # other mu of 7.
    sevens = [Partition((2, 2, 2, 1)), Partition((3, 3, 1))]
    if LARGE:
        sevens += [mu for mu in partitions_of(7) if mu not in sevens]

    def check(mu):
        report = verify_minimal(mu)
        assert report["ok"], (mu, [c for c in report["checks"] if not c["ok"]])
        for c in report["checks"]:
            if c["kind"] == "excluded" and not c["detail"]["zero_space"]:
                assert c["detail"]["queries"][0]["layer"] == c["i"]
                assert all(q["status"] == MEMBER for q in c["detail"]["queries"])

    t0 = time.time()
    for mu in partitions_of(6):
        check(mu)
    _report("5 minimality of every mu of 6", time.time() - t0)
    for mu in sevens:
        t0 = time.time()
        check(mu)
        elapsed = time.time() - t0
        assert elapsed < 60.0
        _report(f"5 minimality of {mu}", elapsed)


def test_criterion_5_minimality_at_n8_through_the_cli(capsys):
    # the exact frontier of `verify minimal`: every mu of 8 in one process
    # takes about 18 s on a 2-core host (CPython 3.11.7); the tier-1 run
    # takes three quick shapes.  (4,3,1) takes 0.15 s and 17 MB
    # whole-process because the diagonal slice of each invariant check is
    # built from generator tags and expands no layer
    quick = [Partition((4, 4)), Partition((4, 3, 1)), Partition((2, 2, 2, 2))]
    eights = list(partitions_of(8)) if LARGE else quick
    t0 = time.time()
    for mu in eights:
        code, out = _run_cli(capsys, "verify", "minimal", "--partition", str(mu), "--max-n", "8", "--json")
        assert code == 0, mu
        assert json.loads(out)["ok"] is True, mu
    _report(f"5 minimality of {len(eights)} shapes of 8 through verify minimal", time.time() - t0)


def test_criterion_6_redundancy():
    t0 = time.time()
    nonzero = {}  # (mu, i) -> candidates, for the nonzero excluded spaces
    top = 7 if LARGE else 6
    for n in range(2, top + 1):
        for mu in partitions_of(n):
            for i in excluded_depths(mu):
                report = verify_redundant(mu, i)
                assert report["all_member"], (mu, i)
                # each printed member certificate recombines exactly in a
                # fresh piece
                assert_printed_members_reverify(mu, i, report)
                if not report["zero_space"]:
                    nonzero[mu, i] = report["candidates"]
    # at n <= 4 every excluded space is zero (vacuously generated); the
    # smallest nonzero excluded space is depth 2 of (2,2,1) at n=5
    assert nonzero[Partition((2, 2, 1)), 2] == 75
    assert nonzero[Partition((2, 2, 2)), 2] == 189
    if LARGE:
        assert nonzero[Partition((3, 3, 1)), 2] == 392
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(f"6 redundancy certificates ({len(nonzero)} nonzero spaces, n <= {top})", elapsed)


def test_criterion_7_size_monotonicity():
    t0 = time.time()
    # the explicit n=3 case
    piece = GradedPiece(3, basis_tags(3, 1, 2), 3)
    for cand in basis_tags(3, 1, 3):
        verdict = piece.contains(cand)
        assert verdict["status"] == MEMBER
        assert piece.verify(cand, verdict)
    # the full sweep at n <= 4
    for n in (2, 3, 4):
        for p in range(1, n):
            for i in range(1, p + 1):
                piece = GradedPiece(n, basis_tags(n, i, p), p + 1)
                for cand in basis_tags(n, i, p + 1):
                    verdict = piece.contains(cand)
                    assert verdict["status"] == MEMBER, (n, i, p)
                    assert piece.verify(cand, verdict)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report("7 size monotonicity (ideal inclusion)", elapsed)


def test_criterion_7_size_monotonicity_through_the_cli(capsys):
    # V(i,p+1) in <V(i,p)> for every 1 <= i <= p < n, spanned by the layers;
    # n = 7 takes about 4 s on a 2-core host (CPython 3.11.7)
    t0 = time.time()
    n = 7 if LARGE else 5
    code, out = _run_cli(capsys, "membership", "--rel1", "--n", str(n), "--max-n", "7", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    pairs = [(i, p) for p in range(1, n) for i in range(1, p + 1)]
    assert [(r["i"], r["p"]) for r in report["results"]] == pairs
    assert len(pairs) == (21 if LARGE else 10)
    assert all(r["all_member"] for r in report["results"])
    elapsed = time.time() - t0
    _report(f"7 size monotonicity through membership --rel1 (n = {n})", elapsed)


def test_criterion_8_determinism(capsys):
    t0 = time.time()
    runs = []
    for _ in range(2):
        code, out = _run_cli(
            capsys, "verify", "--partition", "2,2", "--json", "--seed", "0"
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    json.loads(runs[0])  # well-formed JSON
    elapsed = time.time() - t0
    _report("8 determinism", elapsed)
