"""Command-line front end: schedules, generator export, dimension tables,
witnesses, membership oracles, and the full verification pipeline.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 resource
refusal.  Reports are byte-identical across runs with the same configuration;
the JSON shape is described by report_schema.json shipped with the package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .membership import MEMBER, GradedPiece, verify_minimal, verify_redundant
from .minors import family_rank, minor_sum_basis, principal_minor_sum
from .orbit import check_vanishing
from .partitions import (
    Partition,
    admits_minor_space,
    excluded_depths,
    format_partition,
    full_schedule,
    minimal_schedule,
    minor_space_vanishes,
    necessity_witness,
    parse_partition,
    rank_variety_schedule,
    redundancy_witness,
)
from .schur import dimension_table, layer_basis

DEFAULT_MAX_N = 5
WORKDIR_ENV = "ORBIT_IDEALS_WORKDIR"
BLOCK = 1 << 16


def _config(args) -> dict:
    """Reproducibility envelope echoed in every report; a flag the command
    does not take is echoed as null (or, for max_n, as its default)."""
    return {
        "partition": getattr(args, "partition", None),
        "n": getattr(args, "n", None),
        "output": "json" if args.json else "text",
        "max_n": getattr(args, "max_n", DEFAULT_MAX_N),
    }


def _encode(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _emit(report: dict, text_lines: list[str], as_json: bool):
    print(_encode(report) if as_json else "\n".join(text_lines))


def _write_blocks(stream, text: str, stop: int):
    """Write text[:stop] in 64 KiB blocks.  A generators report at n = 6
    runs to 6.5 MB; written whole, it is copied by the slice and again by
    the stream's encoder, which raised the peak RSS of exporting every
    partition of 6 by about 4 MB (5 %)."""
    for k in range(0, stop, BLOCK):
        stream.write(text[k : min(k + BLOCK, stop)])


def _refused(n: int, args, detail: str = "") -> bool:
    """Print the resource refusal when n exceeds --max-n (exit code 3)."""
    if n <= args.max_n:
        return False
    print(f"refusing: n = {n} exceeds --max-n = {args.max_n}{detail}", file=sys.stderr)
    return True


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _descriptor_dicts(schedule):
    return [
        {"i": d.i, "p": d.p, "degree": d.degree, "dimension": d.dimension}
        for d in schedule.minor_spaces
    ]


def render_diagram(mu: Partition, arrows) -> list[str]:
    """Young diagram of the conjugate partition with an arrow below column i
    for every scheduled minor space of depth i."""
    conj = mu.conjugate().parts
    width = conj[0]
    arrows = set(arrows)
    height = len(conj)
    if arrows:
        height = max(height, max(mu.parts[c - 1] for c in arrows) + 1)
    lines = []
    for r in range(height):
        boxes = conj[r] if r < len(conj) else 0
        cells = []
        for c in range(1, width + 1):
            if c <= boxes:
                cells.append("[]")
            elif c in arrows and mu.parts[c - 1] == r:
                cells.append("^ ")
            else:
                cells.append("  ")
        lines.append("".join(cells).rstrip())
    return lines


def cmd_schedule(args) -> int:
    mu = parse_partition(args.partition)
    ambient = args.n if args.n is not None else mu.n
    if ambient < mu.n:
        return _usage_error(f"ambient size {ambient} is smaller than the partition total {mu.n}")
    rank_variety = ambient > mu.n
    if rank_variety:
        minimal = rank_variety_schedule(mu, ambient)
        full = None
    else:
        minimal = minimal_schedule(mu)
        full = full_schedule(mu)
    arrows = [d.i for d in minimal.minor_spaces]
    diagram = render_diagram(mu, arrows)
    report = {
        "report": "schedule",
        "config": _config(args),
        "partition": str(mu),
        "n": ambient,
        "conjugate": str(mu.conjugate()),
        "rank_variety": rank_variety,
        "invariants": list(minimal.invariant_degrees),
        "minimal": _descriptor_dicts(minimal),
        "full": None if full is None else _descriptor_dicts(full),
        "arrows": arrows,
        "diagram": diagram,
    }
    if rank_variety:
        report["note"] = (
            "rank-variety schedule uses the literal unshifted critical sizes; "
            "see the dims and verify commands for the square case only"
        )
    lines = [
        f"partition: {mu}  (n = {ambient})",
        f"conjugate: {mu.conjugate()}",
    ]
    if rank_variety:
        lines.append("rank variety inside larger matrices; literal critical sizes")
    inv = minimal.invariant_degrees
    lines.append(f"invariants: t_p for p = {inv[0]}..{inv[-1]}")
    if full is not None:
        lines.append(
            "full minor spaces:    "
            + " ".join(f"({d.i},{d.p})" for d in full.minor_spaces)
        )
    lines.append(
        "minimal minor spaces: "
        + " ".join(f"({d.i},{d.p})" for d in minimal.minor_spaces)
    )
    lines.append("dimensions:           " + " ".join(str(d.dimension) for d in minimal.minor_spaces))
    lines.append(f"arrows under columns: {', '.join(map(str, arrows)) if arrows else '(none)'}")
    lines.append("")
    lines.extend(diagram)
    _emit(report, lines, args.json)
    return 0


def cmd_generators(args) -> int:
    mu = parse_partition(args.partition)
    n = mu.n
    sched = minimal_schedule(mu)
    count = len(sched.invariant_degrees) + sum(d.dimension for d in sched.minor_spaces)
    if _refused(n, args, f" (about {count} generators of degree up to {mu.critical_size(len(mu))})"):
        return 3
    families = []
    for p in sched.invariant_degrees:
        poly = principal_minor_sum(n, p)
        families.append(
            {
                "family": f"t_{p}",
                "i": 0,
                "p": p,
                "degree": p,
                "count": 1,
                "polynomials": [poly.to_records()],
            }
        )
    for d in sched.minor_spaces:
        basis = layer_basis(n, d.i, d.p)
        families.append(
            {
                "family": f"U_({d.i},{d.p})",
                "i": d.i,
                "p": d.p,
                "degree": d.degree,
                "count": len(basis),
                "polynomials": [poly.to_records() for poly in basis],
            }
        )
    report = {
        "report": "generators",
        "config": _config(args),
        "partition": str(mu),
        "n": n,
        "families": families,
    }
    workdir = os.environ.get(WORKDIR_ENV, ".")
    filename = os.path.join(workdir, f"generators_{format_partition(mu).replace(',', '_')}.json")
    text = _encode(report)
    with open(filename, "w") as fh:
        _write_blocks(fh, text, len(text))
        fh.write("\n")
    if args.json:
        # stdout is the file's report with "path" added; sorted, that key
        # falls just before "report", the last key of the top-level object
        cut = text.rindex('\n  "report": ')
        _write_blocks(sys.stdout, text, cut)
        print(f'\n  "path": {json.dumps(filename)},{text[cut:]}')
    else:
        print(f"wrote {filename}")
        for fam in families:
            print(f"  {fam['family']}: {fam['count']} polynomial(s) of degree {fam['degree']}")
    return 0


def cmd_dims(args) -> int:
    n = args.n
    if _refused(n, args):
        return 3
    dims = list(dimension_table(n))
    ranks = [
        {"i": i, "p": p, "rank": family_rank(n, i, p)}
        for p in range(1, n + 1)
        for i in range(0, n + 1)
    ]
    report = {
        "report": "dims",
        "config": _config(args),
        "n": n,
        "dims": dims,
        "ranks": ranks,
    }
    lines = [f"layer dimensions for n = {n}: {dims}"]
    for entry in ranks:
        lines.append(f"  rank(i={entry['i']}, p={entry['p']}) = {entry['rank']}")
    _emit(report, lines, args.json)
    return 0


def cmd_witness(args) -> int:
    mu = parse_partition(args.partition)
    depths = [args.i] if args.i is not None else list(range(2, len(mu) + 1))
    entries = []
    for i in depths:
        if not (2 <= i <= len(mu)):
            return _usage_error(f"depth {i} out of range 2..{len(mu)}")
        if admits_minor_space(mu, i):
            p = mu.critical_size(i)
            if minor_space_vanishes(mu.n, i, p):
                entries.append({"i": i, "kind": "zero_space", "p": p})
                continue
            w = necessity_witness(mu, i)
            entries.append(
                {
                    "i": i,
                    "kind": "necessity",
                    "p": p,
                    "witness": str(w),
                    "witness_conjugate": str(w.conjugate()),
                }
            )
        else:
            w = redundancy_witness(mu, i)
            entries.append(
                {
                    "i": i,
                    "kind": "redundancy",
                    "p": mu.critical_size(i),
                    "witness": str(w),
                    "witness_conjugate": str(w.conjugate()),
                }
            )
    report = {
        "report": "witness",
        "config": _config(args),
        "partition": str(mu),
        "n": mu.n,
        "witnesses": entries,
    }
    lines = [f"witness partitions for {mu}:"]
    for e in entries:
        if e["kind"] == "zero_space":
            lines.append(f"  depth {e['i']}: space of size {e['p']} is zero")
        else:
            lines.append(
                f"  depth {e['i']} ({e['kind']}, p={e['p']}): {e['witness']}"
                f"  [conjugate {e['witness_conjugate']}]"
            )
    _emit(report, lines, args.json)
    return 0


def cmd_membership(args) -> int:
    # argparse keeps --rel1 and --partition apart; --n goes with --rel1 only
    # and --i with --partition only
    if args.rel1:
        if args.i is not None:
            return _usage_error("--i does not apply to --rel1")
        if args.n is None:
            return _usage_error("--rel1 requires --n")
        n = args.n
        if _refused(n, args):
            return 3
        results = []
        ok = True
        for p in range(1, n):
            for i in range(1, p + 1):
                gens = minor_sum_basis(n, i, p)
                piece = GradedPiece(n, gens, p + 1)
                statuses = [piece.contains(c).status for c in minor_sum_basis(n, i, p + 1)]
                all_member = all(s == MEMBER for s in statuses)
                ok = ok and all_member
                results.append({"i": i, "p": p, "all_member": all_member})
        report = {
            "report": "membership",
            "config": _config(args),
            "kind": "rel1",
            "n": n,
            "results": results,
            "ok": ok,
        }
        lines = [f"size-monotone membership at n = {n}:"]
        for r in results:
            lines.append(f"  V({r['i']},{r['p']+1}) in <V({r['i']},{r['p']})>: {'yes' if r['all_member'] else 'NO'}")
        lines.append(f"result: {'PASS' if ok else 'FAIL'}")
        _emit(report, lines, args.json)
        return 0 if ok else 1

    if args.n is not None:
        return _usage_error("--n applies only with --rel1")
    if args.partition is None:
        return _usage_error("membership requires --partition (or --rel1 with --n)")
    mu = parse_partition(args.partition)
    if _refused(mu.n, args):
        return 3
    if args.i is None:
        return _usage_error("membership requires --i (or --rel1)")
    i = args.i
    if not (1 <= i <= len(mu)):
        return _usage_error(f"depth {i} out of range 1..{len(mu)}")
    if i in excluded_depths(mu):
        rep = verify_redundant(mu, i)
        report = {
            "report": "membership",
            "config": _config(args),
            "kind": "redundancy",
            **rep.as_dict(),
        }
        lines = [
            f"excluded depth {i} of {mu} (size {rep.p}):",
            f"  zero space: {rep.zero_space}",
            f"  candidates: {len(rep.verdicts)}, all member: {rep.all_member}",
        ]
        _emit(report, lines, args.json)
        return 0 if rep.all_member else 1
    return _usage_error(f"depth {i} is scheduled for {mu}; use `verify` for minimality certificates")


def cmd_verify(args) -> int:
    mu = parse_partition(args.partition)
    n = mu.n
    if _refused(n, args, "; raise --max-n to force (vanishing and oracle cost grows quickly)"):
        return 3
    suite = args.suite
    run_vanishing = suite in ("all", "vanishing")
    run_minimal = suite in ("all", "minimal")
    ok = True
    vanishing = []
    sharpness = []
    if run_vanishing:
        sched = full_schedule(mu)
        for p in sched.invariant_degrees:
            r = check_vanishing(mu, 0, p)
            vanishing.append({"i": 0, "p": p, "all_zero": r.all_zero, "expected": True})
            ok = ok and r.all_zero
        for d in sched.minor_spaces:
            r = check_vanishing(mu, d.i, d.p)
            vanishing.append({"i": d.i, "p": d.p, "all_zero": r.all_zero, "expected": True})
            ok = ok and r.all_zero
        for i in range(1, len(mu) + 1):
            ci = mu.critical_size(i)
            if ci > i:
                r = check_vanishing(mu, i, ci - 1)
                entry = {"i": i, "p": ci - 1, "all_zero": r.all_zero, "expected": False}
                if r.witness is not None:
                    entry["witness"] = {"rows": r.witness[0], "cols": r.witness[1]}
                sharpness.append(entry)
                ok = ok and not r.all_zero
    minimality = None
    if run_minimal:
        minimality = verify_minimal(mu)
        ok = ok and minimality.ok
    report = {
        "report": "verify",
        "config": _config(args),
        "suite": suite,
        "partition": str(mu),
        "n": n,
        "vanishing": vanishing,
        "sharpness": sharpness,
        "minimality": None if minimality is None else minimality.as_dict(),
        "ok": ok,
    }
    lines = [f"verification for {mu} (n = {n}):"]
    for v in vanishing:
        status = "PASS" if v["all_zero"] else "FAIL"
        lines.append(f"  vanishing  (i={v['i']}, p={v['p']}): {status}")
    for s in sharpness:
        status = "PASS" if not s["all_zero"] else "FAIL"
        lines.append(f"  sharpness  (i={s['i']}, p={s['p']}): {status}")
    if minimality is not None:
        for c in minimality.checks:
            status = "PASS" if c.ok else f"FAIL ({c.status})"
            lines.append(f"  minimality {c.kind} (i={c.i}, p={c.p}): {status}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    _emit(report, lines, args.json)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitideals",
        description="Minimal generating sets of nilpotent orbit closure ideals, with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        """A subcommand with the flags every command takes."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        # Nothing reads a seed, but perfbench/workloads.py passes --seed on every
        # operation (ROADMAP item 6), so it is accepted, hidden and ignored.
        p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
        return p

    def partition(p, required=True):
        p.add_argument("--partition", required=required, help='partition, e.g. "3,3,2" or "3^2,2"')

    def max_n(p):
        p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="resource refusal bound")

    def size(text):
        """A matrix size (argparse names it in the error for a non-integer)."""
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        return value

    p = command("schedule", cmd_schedule, "print the full and minimal generator schedules")
    partition(p)
    p.add_argument("--n", type=size, help="ambient matrix size (rank varieties)")

    p = command("generators", cmd_generators, "write the serialized generator families")
    partition(p)
    max_n(p)

    p = command("dims", cmd_dims, "layer dimension table and family ranks")
    p.add_argument("--n", type=size, required=True, help="matrix size")
    max_n(p)

    p = command("witness", cmd_witness, "necessity and redundancy witness partitions")
    partition(p)
    p.add_argument("--i", type=int, help="single depth to explain")

    p = command("membership", cmd_membership, "graded membership oracle reports")
    mode = p.add_mutually_exclusive_group()
    partition(mode, required=False)
    mode.add_argument("--rel1", action="store_true", help="check V(i,p+1) in <V(i,p)> for all valid i,p (needs --n)")
    p.add_argument("--i", type=int, help="depth to certify (excluded depths; with --partition)")
    p.add_argument("--n", type=size, help="matrix size (with --rel1)")
    max_n(p)

    p = command("verify", cmd_verify, "vanishing, sharpness, minimality and redundancy suites")
    p.add_argument(
        "suite",
        nargs="?",
        choices=("all", "vanishing", "minimal"),
        default="all",
        help="which suite to run (default all)",
    )
    partition(p)
    max_n(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
