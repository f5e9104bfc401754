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
from dataclasses import asdict, dataclass

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


@dataclass(frozen=True)
class RunConfig:
    """Reproducibility envelope echoed in every report."""

    partition: str | None
    n: int | None
    seed: int
    samples: int
    output: str
    max_n: int

    def as_dict(self) -> dict:
        return asdict(self)


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        partition=getattr(args, "partition", None),
        n=getattr(args, "n", None),
        seed=getattr(args, "seed", 0),
        samples=getattr(args, "samples", 10),
        output="json" if getattr(args, "json", False) else "text",
        max_n=getattr(args, "max_n", DEFAULT_MAX_N),
    )


def _emit(report: dict, text_lines: list[str], as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


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
    config = _config_from_args(args)
    mu = parse_partition(args.partition)
    ambient = args.n if args.n is not None else mu.n
    if ambient < mu.n:
        print(f"error: ambient size {ambient} is smaller than the partition total {mu.n}", file=sys.stderr)
        return 2
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
        "config": config.as_dict(),
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


def _generator_estimate(mu: Partition) -> int:
    sched = minimal_schedule(mu)
    return len(sched.invariant_degrees) + sum(d.dimension for d in sched.minor_spaces)


def cmd_generators(args) -> int:
    config = _config_from_args(args)
    mu = parse_partition(args.partition)
    n = mu.n
    if n > args.max_n:
        print(
            f"refusing: n = {n} exceeds --max-n = {args.max_n} "
            f"(about {_generator_estimate(mu)} generators of degree up to {mu.critical_size(len(mu))})",
            file=sys.stderr,
        )
        return 3
    sched = minimal_schedule(mu)
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
        "config": config.as_dict(),
        "partition": str(mu),
        "n": n,
        "families": families,
    }
    workdir = os.environ.get(WORKDIR_ENV, ".")
    filename = os.path.join(workdir, f"generators_{format_partition(mu).replace(',', '_')}.json")
    with open(filename, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = [f"wrote {filename}"]
    for fam in families:
        lines.append(f"  {fam['family']}: {fam['count']} polynomial(s) of degree {fam['degree']}")
    _emit({**report, "path": filename}, lines, args.json)
    return 0


def cmd_dims(args) -> int:
    config = _config_from_args(args)
    n = args.n
    if n is None:
        print("error: dims requires --n", file=sys.stderr)
        return 2
    if n > args.max_n:
        print(
            f"refusing: rank table at n = {n} exceeds --max-n = {args.max_n}",
            file=sys.stderr,
        )
        return 3
    table = dimension_table(n)
    ranks = [
        {"i": i, "p": p, "rank": family_rank(n, i, p)}
        for p in range(1, n + 1)
        for i in range(0, n + 1)
    ]
    report = {
        "report": "dims",
        "config": config.as_dict(),
        "n": n,
        "dims": list(table.dims),
        "ranks": ranks,
    }
    lines = [f"layer dimensions for n = {n}: {list(table.dims)}"]
    for entry in ranks:
        lines.append(f"  rank(i={entry['i']}, p={entry['p']}) = {entry['rank']}")
    _emit(report, lines, args.json)
    return 0


def cmd_witness(args) -> int:
    config = _config_from_args(args)
    mu = parse_partition(args.partition)
    depths = [args.i] if args.i is not None else list(range(2, len(mu) + 1))
    entries = []
    for i in depths:
        if not (2 <= i <= len(mu)):
            print(f"error: depth {i} out of range 2..{len(mu)}", file=sys.stderr)
            return 2
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
        "config": config.as_dict(),
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
    config = _config_from_args(args)
    if args.rel1:
        if args.n is None:
            print("error: --rel1 requires --n", file=sys.stderr)
            return 2
        n = args.n
        if n > args.max_n:
            print(f"refusing: --rel1 at n = {n} exceeds --max-n = {args.max_n}", file=sys.stderr)
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
            "config": config.as_dict(),
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

    if args.partition is None:
        print("error: membership requires --partition (or --rel1 with --n)", file=sys.stderr)
        return 2
    mu = parse_partition(args.partition)
    if mu.n > args.max_n:
        print(f"refusing: n = {mu.n} exceeds --max-n = {args.max_n}", file=sys.stderr)
        return 3
    if args.i is None:
        print("error: membership requires --i (or --rel1)", file=sys.stderr)
        return 2
    i = args.i
    if i in excluded_depths(mu):
        rep = verify_redundant(mu, i)
        report = {
            "report": "membership",
            "config": config.as_dict(),
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
    print(
        f"error: depth {i} is scheduled for {mu}; use `verify` for minimality certificates",
        file=sys.stderr,
    )
    return 2


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    mu = parse_partition(args.partition)
    n = mu.n
    if n > args.max_n:
        print(
            f"refusing: n = {n} exceeds --max-n = {args.max_n}; "
            "raise --max-n to force (vanishing and oracle cost grows quickly)",
            file=sys.stderr,
        )
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
            r = check_vanishing(mu, 0, p, samples=args.samples, seed=args.seed)
            vanishing.append({"i": 0, "p": p, "all_zero": r.all_zero, "expected": True})
            ok = ok and r.all_zero
        for d in sched.minor_spaces:
            r = check_vanishing(mu, d.i, d.p, samples=args.samples, seed=args.seed)
            vanishing.append({"i": d.i, "p": d.p, "all_zero": r.all_zero, "expected": True})
            ok = ok and r.all_zero
        for i in range(1, len(mu) + 1):
            ci = mu.critical_size(i)
            if ci > i:
                r = check_vanishing(mu, i, ci - 1, samples=args.samples, seed=args.seed)
                entry = {"i": i, "p": ci - 1, "all_zero": r.all_zero, "expected": False}
                if r.witness is not None:
                    entry["witness"] = {"element": r.witness[0], "sample_seed": r.witness[1]}
                sharpness.append(entry)
                ok = ok and not r.all_zero
    minimality = None
    if run_minimal:
        minimality = verify_minimal(mu, samples=args.samples, seed=args.seed)
        ok = ok and minimality.ok
    report = {
        "report": "verify",
        "config": config.as_dict(),
        "suite": suite,
        "partition": str(mu),
        "n": n,
        "vanishing": vanishing,
        "sharpness": sharpness,
        "minimality": None if minimality is None else minimality.as_dict(),
        "ok": ok,
    }
    lines = [f"verification for {mu} (n = {n}, seed {args.seed}, {args.samples} samples):"]
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

    def common(p, partition_required=True):
        if partition_required:
            p.add_argument("--partition", required=True, help='partition, e.g. "3,3,2" or "3^2,2"')
        else:
            p.add_argument("--partition", help='partition, e.g. "3,3,2" or "3^2,2"')
        p.add_argument("--n", type=int, help="ambient matrix size (rank varieties)")
        p.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
        p.add_argument("--samples", type=int, default=10, help="orbit samples per check (default 10)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="resource refusal bound")

    p = sub.add_parser("schedule", help="print the full and minimal generator schedules")
    common(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("generators", help="write the serialized generator families")
    common(p)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("dims", help="layer dimension table and family ranks")
    common(p, partition_required=False)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("witness", help="necessity and redundancy witness partitions")
    common(p)
    p.add_argument("--i", type=int, help="single depth to explain")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("membership", help="graded membership oracle reports")
    common(p, partition_required=False)
    p.add_argument("--i", type=int, help="depth to certify (excluded depths)")
    p.add_argument("--rel1", action="store_true", help="check V(i,p+1) in <V(i,p)> for all valid i,p")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("verify", help="vanishing, sharpness, minimality and redundancy suites")
    p.add_argument(
        "suite",
        nargs="?",
        choices=("all", "vanishing", "minimal"),
        default="all",
        help="which suite to run (default all)",
    )
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "partition", None) is None and args.command in ("schedule", "generators", "witness", "verify"):
        print("error: --partition is required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
