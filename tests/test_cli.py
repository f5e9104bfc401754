import json
from importlib import resources

import jsonschema

from orbitideals.cli import main, render_diagram
from orbitideals.partitions import minimal_schedule, parse_partition, partitions_of


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


def test_rank_variety_schedule_flagged(capsys):
    code, out, _ = run(capsys, "schedule", "--partition", "2,1", "--n", "4", "--json")
    assert code == 0
    report = validate_report(out)
    assert report["rank_variety"] is True
    assert report["invariants"] == [2, 3]
    assert "note" in report


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
            sched = minimal_schedule(mu)
            want = [(f"t_{p}", 0, p, 1) for p in sched.invariant_degrees] + [
                (f"U_({d.i},{d.p})", d.i, d.p, d.dimension) for d in sched.minor_spaces
            ]
            got = [(f["family"], f["i"], f["p"], f["count"]) for f in report["families"]]
            assert got == want, mu
            assert all(len(f["polynomials"]) == f["count"] for f in report["families"])


def test_generators_json_bytes(tmp_path, monkeypatch, capsys):
    # stdout is the file's report with "path" added, each encoded once
    monkeypatch.setenv("ORBIT_IDEALS_WORKDIR", str(tmp_path))
    for n in range(1, 5):
        for mu in partitions_of(n):
            code, out, _ = run(capsys, "generators", "--partition", str(mu), "--json")
            assert code == 0
            path = str(tmp_path / f"generators_{str(mu).replace(',', '_')}.json")
            text = open(path).read()
            report = json.loads(text)
            assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
            assert out == json.dumps({**report, "path": path}, indent=2, sort_keys=True) + "\n"


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


def test_membership_rel1(capsys):
    code, out, _ = run(capsys, "membership", "--rel1", "--n", "3", "--json")
    assert code == 0
    report = validate_report(out)
    assert report["ok"] is True
    assert {(r["i"], r["p"]) for r in report["results"]} == {(1, 1), (1, 2), (2, 2)}


def test_membership_scheduled_depth_is_usage_error(capsys):
    code, _, err = run(capsys, "membership", "--partition", "2,1,1", "--i", "2")
    assert code == 2
    assert "is scheduled" in err


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


def test_verify_refusal(capsys):
    code, _, err = run(capsys, "verify", "--partition", "3,2,1", "--max-n", "5")
    assert code == 3
    assert "refusing" in err


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


def test_text_and_json_share_facts(capsys):
    code, text_out, _ = run(capsys, "verify", "--partition", "2,1")
    code2, json_out, _ = run(capsys, "verify", "--partition", "2,1", "--json")
    assert code == code2 == 0
    report = json.loads(json_out)
    for v in report["vanishing"]:
        assert f"vanishing  (i={v['i']}, p={v['p']})" in text_out
    assert "result: PASS" in text_out
