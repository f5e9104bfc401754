import argparse
import json
import os
import types
from importlib import resources

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitideals import cli, membership, orbit
from orbitideals.cli import main, render_diagram
from orbitideals.partitions import (
    admits_minor_space,
    full_schedule,
    minimal_schedule,
    minor_space_vanishes,
    parse_partition,
    partitions_of,
)
from orbitideals.polyring import Polynomial, monomials_of_degree
from orbitideals.schur import highest_weight_tag, layer_basis, layer_dimension, layer_generators

LARGE = os.environ.get("ORBIT_IDEALS_LARGE") == "1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_report(out: str):
    schema = json.loads(
        resources.files("orbitideals").joinpath("report_schema.json").read_text()
    )
    report = json.loads(out)
    jsonschema.validate(report, schema)
    return report


def test_schedule_paper_example_one(capsys):
    code, out, _ = run(capsys, "schedule", "--partition", "3^2,2^2,1^5", "--json")
    assert code == 0
    report = validate_report(out)
    assert report["invariants"] == [1, 2, 3]
    assert [(d["i"], d["p"]) for d in report["minimal"]] == [
        (1, 3), (3, 6), (5, 7), (6, 7), (7, 7),
    ]
    assert [(d["i"], d["p"]) for d in report["full"]] == [
        (1, 3), (2, 5), (3, 6), (4, 7), (5, 7), (6, 7), (7, 7),
    ]
    assert report["arrows"] == [1, 3, 5, 6, 7]
    assert report["conjugate"] == "9,4,2"


def test_schedule_paper_example_two(capsys):
    code, out, _ = run(capsys, "schedule", "--partition", "4,2^3,1^5", "--json")
    assert code == 0
    report = validate_report(out)
    assert report["invariants"] == [1, 2, 3, 4]
    assert [(d["i"], d["p"]) for d in report["minimal"]] == [
        (1, 4), (2, 5), (3, 6), (5, 7), (6, 7), (7, 7),
    ]
    assert report["arrows"] == [1, 2, 3, 5, 6, 7]
    assert report["conjugate"] == "9,4,1,1"


def test_schedule_invariants_only(capsys):
    code, out, _ = run(capsys, "schedule", "--partition", "5", "--json")
    assert code == 0
    report = validate_report(out)
    assert report["invariants"] == [1, 2, 3, 4, 5]
    assert report["minimal"] == [] and report["arrows"] == []


def test_schedule_text_contains_diagram(capsys):
    code, out, _ = run(capsys, "schedule", "--partition", "3^2,2^2,1^5")
    assert code == 0
    assert "[][][][][][][][][]" in out
    assert "arrows under columns: 1, 3, 5, 6, 7" in out


def test_render_diagram_arrow_rows():
    mu = parse_partition("3^2,2^2,1^5")
    lines = render_diagram(mu, [1, 3, 5, 6, 7])
    assert lines[0] == "[]" * 9
    assert lines[1].startswith("[]" * 4)
    assert lines[1].count("^") == 3  # columns 5,6,7 sit one row below their boxes
    assert lines[2].count("^") == 1
    assert lines[3].strip() == "^"


def test_malformed_partition_is_usage_error(capsys):
    code, _, err = run(capsys, "schedule", "--partition", "1,2,3")
    assert code == 2
    assert "error" in err
    # a zero or negative exponent, or a non-digit part, is refused
    for text in ("2^0,1", "2^-1,1", "3_0,1"):
        code, out, err = run(capsys, "schedule", "--partition", text)
        assert (code, out) == (2, ""), text
        assert err.startswith("error: "), text


def test_schedule_descriptors_sweep(capsys):
    # every mu of n <= 7
    for n in range(1, 8):
        for mu in partitions_of(n):
            code, out, _ = run(capsys, "schedule", "--partition", str(mu), "--json")
            assert code == 0
            report = validate_report(out)
            assert report["n"] == n
            # the layers: the invariants as depth 0, then the minor spaces
            invariants = [(0, p) for p in report["invariants"]]
            for key, layers in (("minimal", minimal_schedule(mu)), ("full", full_schedule(mu))):
                assert list(layers) == invariants + [(d["i"], d["p"]) for d in report[key]]
                for d in report[key]:
                    assert d["degree"] == d["p"], (mu, d)
                    assert d["dimension"] == layer_dimension(n, d["i"]), (mu, d)


def test_generators_writes_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ORBIT_IDEALS_WORKDIR", str(tmp_path))
    code, out, _ = run(capsys, "generators", "--partition", "2,1")
    assert code == 0
    data = json.loads((tmp_path / "generators_2_1.json").read_text())
    fams = {f["family"]: f for f in data["families"]}
    assert fams["t_1"]["count"] == 1
    assert fams["t_2"]["count"] == 1
    assert fams["U_(1,2)"]["count"] == 8  # the layer, not the 9-dimensional depth-1 span
    assert all(rec["coeff"].lstrip("-").isdigit() for rec in fams["U_(1,2)"]["polynomials"][0])


def test_generators_family_counts_match_schedule(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ORBIT_IDEALS_WORKDIR", str(tmp_path))
    for n in range(1, 6):
        for mu in partitions_of(n):
            code, out, _ = run(capsys, "generators", "--partition", str(mu), "--json")
            assert code == 0
            report = validate_report(out)
            layers = minimal_schedule(mu)
            want = [(f"t_{p}", 0, p, 1) for i, p in layers if not i] + [
                (f"U_({i},{p})", i, p, layer_dimension(n, i)) for i, p in layers if i
            ]
            got = [(f["family"], f["i"], f["p"], f["count"]) for f in report["families"]]
            assert got == want, mu
            assert all(len(f["polynomials"]) == f["count"] for f in report["families"])


def test_generators_json_bytes(tmp_path, monkeypatch, capsys):
    # the file is the stdlib encoding of the report with to_records()
    # families; stdout is the same report with "path" added
    monkeypatch.setenv("ORBIT_IDEALS_WORKDIR", str(tmp_path))
    for mu in [*(mu for n in range(1, 5) for mu in partitions_of(n)), parse_partition("2,2,1")]:
        code, out, _ = run(capsys, "generators", "--partition", str(mu), "--json")
        assert code == 0
        path = str(tmp_path / f"generators_{str(mu).replace(',', '_')}.json")
        families = [
            {
                "family": f"U_({i},{p})" if i else f"t_{p}",
                "i": i,
                "p": p,
                "degree": p,
                "count": layer_dimension(mu.n, i),
                "polynomials": [poly.to_records() for poly in layer_basis(mu.n, i, p)],
            }
            for i, p in minimal_schedule(mu)
        ]
        report = {
            "report": "generators",
            "config": {"partition": str(mu), "max_n": 5, "output": "json"},
            "partition": str(mu),
            "n": mu.n,
            "families": families,
        }
        with open(path) as fh:
            assert_same_text(fh.read(), stdlib_bytes(report) + "\n", mu)
        assert_same_text(out, stdlib_bytes({**report, "path": path}) + "\n", mu)


def test_generators_unwritable_workdir(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing"
    monkeypatch.setenv("ORBIT_IDEALS_WORKDIR", str(missing))
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "generators", "--partition", "2,1", *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(missing) in err
    assert not missing.exists()


def test_generators_refusal(capsys):
    code, _, err = run(capsys, "generators", "--partition", "3,2,1", "--max-n", "4")
    assert code == 3
    assert "refusing" in err


def test_dims_output(capsys):
    code, out, _ = run(capsys, "dims", "--n", "3", "--json")
    assert code == 0
    report = validate_report(out)
    assert report["dims"] == [1, 8, 0, 0]
    ranks = {(r["i"], r["p"]): r["rank"] for r in report["ranks"]}
    assert ranks[(1, 1)] == 9 and ranks[(0, 2)] == 1 and ranks[(1, 2)] == 9


def test_dims_requires_n(capsys):
    code, _, err = run(capsys, "dims")
    assert code == 2


def test_size_below_one_is_usage_error(capsys):
    for argv in (
        ["dims", "--n", "-1"],
        ["dims", "--n", "0", "--json"],
        ["membership", "--rel1", "--n", "0", "--json"],
        ["membership", "--rel1", "--n", "-2", "--json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "must be at least 1" in err


def test_witness_subcommand(capsys):
    code, out, _ = run(capsys, "witness", "--partition", "4,2^3,1^5", "--i", "3", "--json")
    assert code == 0
    report = validate_report(out)
    (entry,) = report["witnesses"]
    assert entry == {
        "i": 3,
        "kind": "necessity",
        "p": 6,
        "witness": "3,3,3,2,1,1,1,1",
        "witness_conjugate": "8,4,3",
    }


def test_membership_redundancy(capsys):
    code, out, _ = run(capsys, "membership", "--partition", "2,2", "--i", "2", "--json")
    assert code == 0
    report = validate_report(out)
    assert report["kind"] == "redundancy"
    assert report["zero_space"] is True and report["all_member"] is True


def test_membership_schema_rejects_broken_redundancy_reports(capsys):
    code, out, _ = run(capsys, "membership", "--partition", "2,2,1", "--i", "2", "--json")
    assert code == 0
    report = validate_report(out)
    assert report["candidates"] == len(report["verdicts"]) == 75
    missing = {k: v for k, v in report.items() if k != "all_member"}
    mistyped = {**report, "verdicts": {"0": report["verdicts"][0]}}
    for broken in (missing, mistyped):
        with pytest.raises(jsonschema.ValidationError):
            validate_report(json.dumps(broken))


def test_schema_types_every_printed_verdict(capsys):
    # a verdict is typed where a redundancy report lists it and where it is
    # the detail of an invariant check; SUBCOMMANDS reports all validate
    code, out, _ = run(capsys, "membership", "--partition", "2,2,1", "--i", "2", "--json")
    assert code == 0
    report = validate_report(out)
    term = report["verdicts"][0]["combination"][0]
    for change in ({"coeff": "1.5"}, {"coeff": "x"}, {"gen": -1}, {"monomial": [[0, 1, 1]]}, {"extra": 1}):
        verdict = {**report["verdicts"][0], "combination": [{**term, **change}]}
        with pytest.raises(jsonschema.ValidationError):
            validate_report(json.dumps({**report, "verdicts": [verdict]}))
    with pytest.raises(jsonschema.ValidationError):
        validate_report(json.dumps({**report, "verdicts": [{"status": "member"}]}))

    code, out, _ = run(capsys, "verify", "minimal", "--partition", "2,1,1", "--json")
    assert code == 0
    report = validate_report(out)
    checks = report["minimality"]["checks"]
    k = next(k for k, c in enumerate(checks) if c["kind"] == "invariant")
    detail = checks[k]["detail"]
    assert detail["status"] == "non_member" and detail["slice"] == "diagonal"
    first = detail["functional"][0]
    for change in ({"functional": [{**first, "coeff": "1/x"}]}, {"slice": "full"}, {"status": "consistent_non_member"}):
        broken = [*checks[:k], {**checks[k], "detail": {**detail, **change}}, *checks[k + 1 :]]
        with pytest.raises(jsonschema.ValidationError):
            validate_report(json.dumps({**report, "minimality": {**report["minimality"], "checks": broken}}))
    # a minor-space detail is not a verdict
    assert any(c["kind"] == "minor_space" and "status" not in c["detail"] for c in checks)


def test_schema_types_the_excluded_detail(capsys):
    # every highest-weight query of the excluded depth 2 of (2,2,1) validates,
    # and a detail that breaks the typing does not
    code, out, _ = run(capsys, "verify", "--partition", "2,2,1", "--json")
    assert code == 0
    report = validate_report(out)
    checks = report["minimality"]["checks"]
    k = next(k for k, c in enumerate(checks) if c["kind"] == "excluded")
    detail = checks[k]["detail"]
    assert [(q["layer"], q["p"], q["generators"], q["status"]) for q in detail["queries"]] == [
        (2, 3, ["t_1", "t_2", "U_(1,2)"], "member"),
        (1, 3, ["t_2", "U_(1,2)"], "member"),
        (0, 3, ["t_2", "U_(1,2)"], "member"),
    ]
    assert (detail["zero_space"], detail["candidates"]) == (False, 75)
    first = detail["queries"][0]
    changes = [{"zero_space": True}, {"queries": []}, {"candidates": -1}, {"extra": 1}]
    changes += [
        {"queries": [{**first, **change}]}
        for change in ({"status": "consistent_non_member"}, {"layer": -1}, {"generators": ["V(1,2)"]}, {"extra": 1})
    ]
    changes.append({"queries": [{k: v for k, v in first.items() if k != "status"}]})
    for change in changes:
        broken = [*checks[:k], {**checks[k], "detail": {**detail, **change}}, *checks[k + 1 :]]
        with pytest.raises(jsonschema.ValidationError):
            validate_report(json.dumps({**report, "minimality": {**report["minimality"], "checks": broken}}))
    no_queries = {key: v for key, v in detail.items() if key != "queries"}
    broken = [*checks[:k], {**checks[k], "detail": no_queries}, *checks[k + 1 :]]
    with pytest.raises(jsonschema.ValidationError):
        validate_report(json.dumps({**report, "minimality": {**report["minimality"], "checks": broken}}))
    # a zero-space detail keeps its two keys and no queries
    code, out, _ = run(capsys, "verify", "minimal", "--partition", "2,2", "--json")
    (zero,) = [c for c in validate_report(out)["minimality"]["checks"] if c["kind"] == "excluded"]
    assert zero["detail"] == {"zero_space": True, "candidates": 0}


def test_membership_rel1(capsys):
    code, out, _ = run(capsys, "membership", "--rel1", "--n", "3", "--json")
    assert code == 0
    report = validate_report(out)
    assert report["ok"] is True
    assert {(r["i"], r["p"]) for r in report["results"]} == {(1, 1), (1, 2), (2, 2)}
    for broken in ({k: v for k, v in report.items() if k != "ok"}, {**report, "results": [{"i": 1}]}):
        with pytest.raises(jsonschema.ValidationError):
            validate_report(json.dumps(broken))


@pytest.mark.parametrize("n", [2, 3, 4] + ([5] if LARGE else []))
def test_membership_rel1_matches_a_fresh_piece_per_step(capsys, n):
    # the sweep asks one highest-weight vector per layer that V(i,p+1) adds;
    # the oracle builds <V(i,p)> afresh for every (i, p) and asks for every
    # layer representative of V(i,p+1)
    def span(i, q):
        return [tag for j in range(i + 1) for tag in layer_generators(n, j, q)]

    results = []
    for p in range(1, n):
        for i in range(1, p + 1):
            piece = membership.GradedPiece(n, span(i, p), p + 1)
            all_member = all(piece.contains(c)["status"] == membership.MEMBER for c in span(i, p + 1))
            results.append({"i": i, "p": p, "all_member": all_member})
    oracle = {"kind": "rel1", "n": n, "results": results, "ok": all(r["all_member"] for r in results)}
    assert membership.verify_rel1(n) == oracle
    code, out, _ = run(capsys, "membership", "--rel1", "--n", str(n), "--json")
    assert code == 0
    report = json.loads(out)
    assert {k: report[k] for k in oracle} == oracle


@pytest.mark.parametrize("times, failing", [(1, [(1, 2)]), (None, [(1, 2), (2, 2)])])
def test_membership_rel1_rests_on_its_certificates(capsys, monkeypatch, times, failing):
    # the verdicts for h_0 = t_3 at n = 4 lose their combination, the first
    # one only or all of them, so `GradedPiece.verify` rejects them and pair
    # (1,2) fails; t_3 stays pending and is asked again at depth 2, against
    # V(2,2), so pair (2,2) holds unless that verdict is forged too; the
    # slice, asked first since rho(t_3) != 0, answers None and is passed over
    n, p = 4, 2
    t = highest_weight_tag(n, 0, p + 1)
    honest = membership.GradedPiece.contains
    forged = []

    def forge(piece, f):
        verdict = honest(piece, f)
        if f == t and verdict is not None and len(forged) != times:
            forged.append(verdict)
            return {**verdict, "combination": []}
        return verdict

    monkeypatch.setattr(membership.GradedPiece, "contains", forge)
    code, out, _ = run(capsys, "membership", "--rel1", "--n", str(n), "--json")
    report = validate_report(out)
    assert all(v["status"] == membership.MEMBER and v["combination"] for v in forged)
    assert (code, report["ok"]) == (1, False)
    assert [(r["i"], r["p"]) for r in report["results"] if not r["all_member"]] == failing


def test_membership_rel1_needs_two_rows(capsys):
    # at n = 1 there is no pair 1 <= i <= p < n, so a PASS would be vacuous
    code, out, err = run(capsys, "membership", "--rel1", "--n", "1", "--json")
    assert (code, out) == (2, "")
    assert "--rel1 needs --n of at least 2" in err


def test_membership_scheduled_depth_is_usage_error(capsys):
    code, _, err = run(capsys, "membership", "--partition", "2,1,1", "--i", "2")
    assert code == 2
    assert "is scheduled" in err


def test_membership_zero_space_is_usage_error(capsys):
    # depths the rule admits whose space is zero: not scheduled, and
    # nothing to certify
    zero = [
        (mu, i)
        for n in range(1, 7)
        for mu in partitions_of(n)
        for i in range(1, len(mu) + 1)
        if admits_minor_space(mu, i) and minor_space_vanishes(n, i, mu.critical_size(i))
    ]
    assert len(zero) == 16
    assert {(str(mu), i) for mu, i in zero} >= {("3,1", 2), ("4", 1), ("2,1", 2), ("3,1,1", 3)}
    for mu, i in zero:
        code, out, err = run(capsys, "membership", "--partition", str(mu), "--i", str(i), "--max-n", "6")
        assert (code, out) == (2, ""), (mu, i)
        assert f"depth {i} of {mu} has a zero space at size {mu.critical_size(i)}" in err
        assert "scheduled" not in err


def test_membership_depth_out_of_range(capsys):
    for depth in ("5", "3", "0", "-1"):
        code, out, err = run(capsys, "membership", "--partition", "2,1", "--i", depth)
        assert (code, out) == (2, "")
        assert f"depth {depth} out of range 1..2" in err


def test_membership_requires_partition_or_rel1(capsys):
    code, _, err = run(capsys, "membership", "--i", "2")
    assert code == 2
    assert "requires" in err


def test_verify_passes_small(capsys):
    for partition in ("2,1", "2,2"):
        code, out, _ = run(capsys, "verify", "--partition", partition, "--json")
        assert code == 0
        report = validate_report(out)
        assert report["ok"] is True


def test_verify_single_suites(capsys):
    code, out, _ = run(capsys, "verify", "vanishing", "--partition", "2,2", "--json")
    assert code == 0
    report = validate_report(out)
    assert report["suite"] == "vanishing"
    assert report["minimality"] is None
    assert report["vanishing"]

    code, out, _ = run(capsys, "verify", "minimal", "--partition", "2,2", "--json")
    assert code == 0
    report = validate_report(out)
    assert report["suite"] == "minimal"
    assert report["vanishing"] == [] and report["minimality"]["ok"] is True


def test_verify_failing_check_exits_one(monkeypatch, capsys):
    # an oracle that wrongly answers `member` fails the invariant checks; its
    # empty combination certifies nothing, so the status is `unverified`, yet
    # the report it gives is typed
    monkeypatch.setattr(membership.GradedPiece, "contains", lambda piece, f: {"status": "member", "combination": []})
    code, out, _ = run(capsys, "verify", "minimal", "--partition", "3")
    assert code == 1
    lines = out.splitlines()
    assert "  minimality invariant (i=0, p=1): FAIL (unverified)" in lines
    assert lines[-1] == "result: FAIL"
    code, out, _ = run(capsys, "verify", "minimal", "--partition", "3", "--json")
    assert code == 1
    report = validate_report(out)
    assert report["ok"] is False and report["minimality"]["ok"] is False
    assert [c["ok"] for c in report["minimality"]["checks"]] == [False, False, False]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["membership", "--rel1", "--n", "1"], 2, "error: --rel1 needs --n of at least 2\n"),
        (["schedule", "--partition", "2,1", "--bogus"], 2, "error: unrecognized arguments: --bogus\n"),
        (["generators", "--partition", "2,1"], 2, "error: [Errno 2] No such file or directory: "),
        (["verify", "--partition", "3,2,1"], 3, "refusing: n = 6 exceeds --max-n = 5; raise --max-n"),
        (["generators", "--partition", "3,2,1", "--max-n", "4"], 3, "refusing: n = 6 exceeds --max-n = 4 (about "),
        (["dims", "--n", "6"], 3, "refusing: n = 6 exceeds --max-n = 5\n"),
        (["membership", "--partition", "3,2,1", "--i", "2"], 3, "refusing: n = 6 exceeds --max-n = 5\n"),
        (["membership", "--rel1", "--n", "6"], 3, "refusing: n = 6 exceeds --max-n = 5\n"),
        (["schedule", "--partition", "2", "--n", "3"], 2, "error: unrecognized arguments: --n 3\n"),
        # the degree is the largest scheduled size, 3, not critical_size(3) = 5
        (["generators", "--partition", "3,3,1"], 3, "(about 51 generators of degree up to 3)\n"),
    ],
)
@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_error_exits_print_nothing_to_stdout(tmp_path, monkeypatch, capsys, argv, code, message, flags):
    # the generators workdir does not exist, so that file cannot be written
    monkeypatch.setenv("ORBIT_IDEALS_WORKDIR", str(tmp_path / "missing"))
    got, out, err = run(capsys, *argv, *flags)
    assert (got, out) == (code, ""), argv
    assert message in err, err


def test_verify_vanishing_is_the_library_suite(capsys):
    for n in range(1, 6):
        for mu in partitions_of(n):
            code, out, _ = run(capsys, "verify", "vanishing", "--partition", str(mu), "--json")
            assert code == 0
            report = json.loads(out)
            suites = json.loads(json.dumps(orbit.verify_vanishing(mu)))  # witness tuples as lists
            assert suites == {k: report[k] for k in ("vanishing", "sharpness")}, mu


def test_verify_refusal(capsys):
    code, _, err = run(capsys, "verify", "--partition", "3,2,1", "--max-n", "5")
    assert code == 3
    assert "refusing" in err


def test_max_n_refuses_only_the_suites_that_run_minimality(capsys):
    # vanishing expands nothing, so n = 15 runs under the default --max-n
    code, out, _ = run(capsys, "verify", "vanishing", "--partition", "4,2^3,1^5", "--json")
    assert code == 0
    report = validate_report(out)
    assert (report["ok"], report["n"], report["config"]["max_n"]) == (True, 15, 5)
    for argv in (["verify"], ["verify", "minimal"]):
        code, out, err = run(capsys, *argv, "--partition", "3,2,1")
        assert (code, out) == (3, ""), argv
        assert "refusing: n = 6 exceeds --max-n = 5" in err


def test_verify_byte_identical(capsys):
    code1, out1, _ = run(capsys, "verify", "--partition", "2,1", "--json", "--seed", "0")
    code2, out2, _ = run(capsys, "verify", "--partition", "2,1", "--json", "--seed", "0")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "verify", "--partition", "2,1", "--json", "--seed", "1")
    assert code3 == 0 and out3 == out1  # --seed is accepted and ignored


def test_unknown_flag_is_usage_error(capsys):
    assert main(["schedule", "--bogus"]) == 2
    assert main(["verify", "--partition", "2,2", "--mode", "exact"]) == 2
    assert main(["verify", "--partition", "2,2", "--samples", "3"]) == 2
    # each subcommand takes only the flags it reads
    assert main(["generators", "--partition", "2,1", "--n", "3"]) == 2
    assert main(["witness", "--partition", "2,1", "--n", "3"]) == 2
    assert main(["verify", "--partition", "2,1", "--n", "9"]) == 2
    assert main(["schedule", "--partition", "2,1", "--max-n", "3"]) == 2
    assert main(["witness", "--partition", "2,1", "--max-n", "3"]) == 2
    assert main(["dims", "--n", "2", "--partition", "9,9"]) == 2
    # membership: --rel1 with --n, or --partition with --i
    assert main(["membership", "--rel1", "--n", "3", "--partition", "2,1"]) == 2
    assert main(["membership", "--partition", "2,2", "--i", "2", "--n", "4"]) == 2
    assert main(["membership", "--rel1", "--n", "3", "--i", "2"]) == 2


def test_config_echoes_only_declared_flags(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ORBIT_IDEALS_WORKDIR", str(tmp_path))
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: {a.dest for a in p._actions} & {"partition", "n", "max_n"}
        for name, p in sub.choices.items()
    }
    seen = set()
    for argv in [*SUBCOMMANDS, ("generators", "--partition", "2,1")]:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        config = json.loads(out)["config"]
        assert set(config) == declared[argv[0]] | {"output"}, argv
        assert config["output"] == "json"
        seen.add(argv[0])
    assert seen == set(declared)


def test_text_and_json_share_facts(capsys):
    code, text_out, _ = run(capsys, "verify", "--partition", "2,1")
    code2, json_out, _ = run(capsys, "verify", "--partition", "2,1", "--json")
    assert code == code2 == 0
    report = json.loads(json_out)
    for v in report["vanishing"]:
        assert f"vanishing  (i={v['i']}, p={v['p']})" in text_out
    assert "result: PASS" in text_out


def stdlib_bytes(o) -> str:
    return json.dumps(o, indent=2, sort_keys=True)


def assert_same_text(got: str, want: str, what=""):
    """got == want, failing with the first difference only: pytest's own
    diff of two texts of many thousand lines takes minutes."""
    if got != want:
        k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        raise AssertionError(f"{what} texts differ at {k}: {got[k - 40 : k + 40]!r} != {want[k - 40 : k + 40]!r}")


# strings with quotes, backslashes, control and non-ASCII characters
TEXT = st.text(st.sampled_from('ab"\\/\x00\x1f\n\t\x7f\xe9\u20ac\U0001f600')) | st.text()
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.integers(-(10**80), 10**80) | TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
@example([[1, 2], [True, 2], {"a": [1, 2], "b": [[1, 2]]}, (1, 2)])
@example({"point": ((0, 1), (0, 0)), "rows": [[0, 1], [0, 0]], "": {}, "z": ()})
@example([10**30, True])
def test_encode_matches_stdlib_bytes(tree):
    assert cli._encode(tree) == stdlib_bytes(tree)


@st.composite
def polynomials(draw):
    """Homogeneous polynomials for n = 1..4: zero, constants, exponents
    above 1 and coefficients far past 64 bits of either sign."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 4))
    mons = monomials_of_degree(n, d)
    picks = draw(st.lists(st.tuples(st.sampled_from(mons), st.integers(-(10**40), 10**40)), max_size=6))
    return Polynomial(n, dict(picks))


def records(tree):
    """The tree with each Polynomial replaced by its to_records()."""
    if type(tree) is Polynomial:
        return tree.to_records()
    if type(tree) is dict:
        return {k: records(v) for k, v in tree.items()}
    if type(tree) in (list, tuple):
        return [records(x) for x in tree]
    return tree


POLYNOMIAL_TREES = st.recursive(
    polynomials() | st.integers(-3, 3) | TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=8,
)
LAYERS = {f"({n},{i},{p})": layer_basis(n, i, p) for n in range(1, 6) for p in range(1, n + 1) for i in range(n + 1)}


@settings(max_examples=200, deadline=None)
@given(POLYNOMIAL_TREES)
@example(Polynomial.zero(2))
@example([Polynomial.constant(3, -(10**30)), {"a": [Polynomial.constant(1, 7)]}])
@example({"polynomials": [Polynomial(2, {(((1, 1), 3), ((2, 1), 1)): -5, (((1, 2), 4),): 2})]})
@example(LAYERS)
def test_encode_writes_polynomials_as_their_records(tree):
    assert_same_text(cli._encode(tree), stdlib_bytes(records(tree)))


def test_encode_rejects_what_no_report_holds():
    # floats, str and Polynomial subclasses and non-str keys raise instead
    # of falling back to the stdlib encoder
    class Key(str):
        pass

    class Poly(Polynomial):
        pass

    for bad in (
        [1.5],
        [1, 2.0],
        {"a": float("nan")},
        [-float("inf")],
        [Key("k")],
        {Key("k"): 1},
        {2: "b", 1: "a"},
        {1: 1, "b": 2},
        {"a": object()},
        [Poly(2, {(((1, 1), 1),): 1})],
    ):
        with pytest.raises(TypeError):
            cli._encode(bad)


SUBCOMMANDS = [
    ("schedule", "--partition", "3^2,2^2,1^5"),
    ("dims", "--n", "3"),
    ("witness", "--partition", "4,2^3,1^5"),
    ("membership", "--rel1", "--n", "3"),
    ("membership", "--partition", "2,2", "--i", "2"),
    ("verify", "--partition", "2,2,1"),  # an excluded depth with 75 candidates
    ("membership", "--partition", "2,2,1", "--i", "2"),  # member verdicts with combinations
    ("verify", "--partition", "2,1,1"),  # minimality checks with a Jordan point
]


def test_every_json_report_has_stdlib_bytes(capsys):
    outs = {}
    for argv in SUBCOMMANDS:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        assert out == stdlib_bytes(validate_report(out)) + "\n", argv
        outs[argv] = out
    assert {argv[0] for argv in outs} == {"schedule", "dims", "witness", "membership", "verify"}
    assert '"combination"' in outs[SUBCOMMANDS[-2]]
    assert '"point"' in outs[SUBCOMMANDS[-1]]


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; an argparse error and a refusal
    # leave nothing behind that changes a later call
    def sweep():
        return [run(capsys, *argv, *flags) for argv in SUBCOMMANDS for flags in ((), ("--json",))]

    first = sweep()
    assert run(capsys, "membership", "--rel1", "--partition", "2,1")[0] == 2
    assert run(capsys, "verify", "--partition", "3,2,1", "--json")[0] == 3
    assert sweep() == first
    assert {code for code, _, _ in first} == {0}


def test_generators_encodes_once(tmp_path, monkeypatch, capsys):
    # perfbench/layers.py charges cli.json.dump and cli.json.dumps to
    # cli.serialize_s; the whole report must pass through one of them once,
    # json.dump, which streams it to the file
    monkeypatch.setenv("ORBIT_IDEALS_WORKDIR", str(tmp_path))
    calls = []
    proxy = types.ModuleType(json.__name__)
    proxy.__dict__.update(vars(json))

    def counted(name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return getattr(json, name)(*args, **kwargs)

        return wrapper

    proxy.dump, proxy.dumps = counted("dump"), counted("dumps")
    monkeypatch.setattr(cli, "json", proxy)
    for flags in ((), ("--json",)):
        calls.clear()
        code, _, _ = run(capsys, "generators", "--partition", "2,1", *flags)
        assert code == 0
        assert calls == ["dump"], flags


def test_generators_stream_one_polynomial_per_piece(tmp_path, monkeypatch, capsys):
    # the pieces join to the encoded report, and each polynomial is a piece
    # of its own between two short separators, so no piece holds more than
    # one polynomial's text
    monkeypatch.setenv("ORBIT_IDEALS_WORKDIR", str(tmp_path))
    reports, dump = [], json.dump

    def recorded(report, *args, **kwargs):
        reports.append(report)
        return dump(report, *args, **kwargs)

    monkeypatch.setattr(json, "dump", recorded)
    for mu in (mu for n in range(1, 6) for mu in partitions_of(n)):
        assert run(capsys, "generators", "--partition", str(mu), "--json")[0] == 0
        report = reports[-1]
        pieces = list(cli._Encoder().iterencode(report))
        assert_same_text("".join(pieces), cli._encode(report), mu)
        polys = [poly for f in report["families"] for poly in f["polynomials"]]
        # a polynomial sits at depth 4: report, families, family, polynomials
        texts = [cli._encode(poly).replace("\n", "\n" + "  " * 4) for poly in polys]
        assert len(pieces) == 2 * len(polys) + 1, mu
        assert pieces[1::2] == texts, mu
        separators = pieces[0::2]
        assert max(map(len, separators)) < 512, mu
        assert max(map(len, pieces)) <= max(map(len, texts)) + max(map(len, separators)), mu


def test_failed_export_leaves_no_file(tmp_path, monkeypatch, capsys):
    # a write that fails after its first piece exits 2 with nothing on
    # stdout, and leaves neither a partial file nor its temporary name; a
    # file from an earlier run stays as it was
    monkeypatch.setenv("ORBIT_IDEALS_WORKDIR", str(tmp_path))
    assert run(capsys, "generators", "--partition", "2,2")[0] == 0
    earlier = (tmp_path / "generators_2_2.json").read_text()
    iterencode = cli._Encoder.iterencode

    def failing(self, o):
        pieces = iterencode(self, o)
        yield next(pieces)
        raise OSError("disk full")

    monkeypatch.setattr(cli._Encoder, "iterencode", failing)
    for mu in ("2,1", "2,2"):
        for flags in ((), ("--json",)):
            code, out, err = run(capsys, "generators", "--partition", mu, *flags)
            assert (code, out) == (2, ""), (mu, flags)
            assert err == "error: disk full\n", (mu, flags)
            assert [p.name for p in tmp_path.iterdir()] == ["generators_2_2.json"], (mu, flags)
            assert (tmp_path / "generators_2_2.json").read_text() == earlier
