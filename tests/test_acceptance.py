"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The large flagged runs (dimension law at n=5, vanishing at n<=10,
membership --rel1 at n=6) are enabled by setting ORBIT_IDEALS_LARGE=1.
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
from orbitideals.minors import family_rank, minor_sum_basis
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
from test_membership import assert_printed_members_reverify

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
    sizes = (2, 3, 4, 5) if LARGE else (2, 3, 4)
    for n in sizes:
        for p in range(1, n + 1):
            for i in range(0, n + 1):
                assert family_rank(n, i, p) == comb(n, min(i, p, n - p)) ** 2, (n, i, p)
    elapsed = time.time() - t0
    assert elapsed < (3600.0 if LARGE else 300.0)
    _report(f"3 dimension law (n in {sizes})", elapsed)


def test_criterion_4_vanishing():
    t0 = time.time()
    top = 10 if LARGE else 8
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


def test_criterion_6_redundancy():
    t0 = time.time()
    nonzero = {}  # (mu, i) -> candidates, for the nonzero excluded spaces
    for n in range(2, 6):
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
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(f"6 redundancy certificates ({len(nonzero)} nonzero spaces, n <= 5)", elapsed)


def test_criterion_7_size_monotonicity():
    t0 = time.time()
    # the explicit n=3 case
    piece = GradedPiece(3, minor_sum_basis(3, 1, 2), 3)
    for cand in minor_sum_basis(3, 1, 3):
        verdict = piece.contains(cand)
        assert verdict["status"] == MEMBER
        assert piece.verify(cand, verdict)
    # the full sweep at n <= 4
    for n in (2, 3, 4):
        for p in range(1, n):
            for i in range(1, p + 1):
                piece = GradedPiece(n, minor_sum_basis(n, i, p), p + 1)
                for cand in minor_sum_basis(n, i, p + 1):
                    verdict = piece.contains(cand)
                    assert verdict["status"] == MEMBER, (n, i, p)
                    assert piece.verify(cand, verdict)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report("7 size monotonicity (ideal inclusion)", elapsed)


def test_criterion_7_size_monotonicity_through_the_cli(capsys):
    # V(i,p+1) in <V(i,p)> for every 1 <= i <= p < n, spanned by the layers;
    # n = 6 takes about 4 s on a 2-core host (CPython 3.11.7)
    t0 = time.time()
    n = 6 if LARGE else 4
    code, out = _run_cli(capsys, "membership", "--rel1", "--n", str(n), "--max-n", "6", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    pairs = [(i, p) for p in range(1, n) for i in range(1, p + 1)]
    assert [(r["i"], r["p"]) for r in report["results"]] == pairs
    assert len(pairs) == (15 if LARGE else 6)
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
