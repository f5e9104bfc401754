"""Command-line front end: schedules, generator export, dimension tables,
witnesses, membership oracles, and the full verification pipeline.

Each `cmd_*` returns its report's fields, its text lines and whether
every check held; it raises ValueError on a usage error and _Refused on a
resource refusal.  Every verdict comes from a library suite
(`verify_minimal`, `verify_redundant`, `verify_rel1`, `verify_vanishing`).
`main` alone prints a report and picks every exit code: 0 success,
1 verification mismatch, 2 usage error (or an unwritable generators
file), 3 resource refusal.  `generators` prints its own stdout: it
streams its report to the file one polynomial at a time, and only then
copies the file to stdout, with "path" added.  Reports are
byte-identical across runs with the same configuration; the JSON shape is
described by report_schema.json shipped with the package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from .membership import _layer_name, verify_minimal, verify_redundant, verify_rel1
from .minors import family_rank
from .orbit import verify_vanishing
from .partitions import (
    Partition,
    admits_minor_space,
    excluded_depths,
    full_schedule,
    minimal_schedule,
    minor_space_vanishes,
    necessity_witness,
    parse_partition,
    redundancy_witness,
)
from .polyring import Polynomial
from .schur import dimension_table, layer_basis, layer_dimension

DEFAULT_MAX_N = 5
WORKDIR_ENV = "ORBIT_IDEALS_WORKDIR"
BLOCK = 1 << 16
# the end of every generators file: the last key of its report, sorted
GENERATORS_TAIL = '\n  "report": "generators"\n}\n'


class _Refused(Exception):
    """A resource refusal: n exceeds --max-n (exit code 3)."""


def _check_max_n(n: int, args, detail: str = ""):
    if n > args.max_n:
        raise _Refused(f"n = {n} exceeds --max-n = {args.max_n}{detail}")


def _report(args, fields: dict) -> dict:
    """A command's fields in the envelope every report carries: the command
    as `report`, and as `config` the reproducibility echo of the output
    format and whichever of partition, n and max_n the command takes."""
    flags = vars(args)
    config = {k: flags[k] for k in ("partition", "n", "max_n") if k in flags}
    config["output"] = "json" if args.json else "text"
    return {"report": args.command, "config": config, **fields}


# the types whose text _Encoder's walk builds from their items
NESTED = frozenset((dict, list, tuple, Polynomial))


class _Encoder(json.JSONEncoder):
    """The bytes of json.dumps(o, indent=2, sort_keys=True) and of
    json.dump with those arguments, the only ones this module passes,
    without the stdlib's pure-Python generator encoder (CPython's C encoder
    takes only indent=None).  `iterencode` is one walk over the tree that
    yields the text of each `Polynomial` as one piece and the text between
    two polynomials as another, so json.dump writes a generators report
    without its whole text ever existing; `encode` joins the pieces.
    Strings go through the C encode_basestring_ascii.  For one walk the
    text of every key, of every all-int list (monomial triples, Jordan
    point rows) at its depth, and of every monomial pair at its depth, is
    cached.

    A `Polynomial` (exactly that type) is written as the text of its
    `to_records()` without building them: one walk over its sorted terms,
    each a {"coeff", "monomial"} record with the coefficient as a quoted
    decimal and the monomial as [row, col, exponent] triples ([] for the
    unit monomial); the zero polynomial is [].  Any other type raises
    TypeError, since no report holds one: a float, a str, int or
    Polynomial subclass, or a non-str key (a key's type is checked when
    its text is first cached)."""

    def encode(self, o):
        return "".join(self.iterencode(o))

    def iterencode(self, o):
        keys: dict[str, str] = {}
        ints: dict[tuple, str] = {}
        pairs: dict[int, dict] = {}
        # the text since the last polynomial, joined when the next one comes
        buf: list[str] = []

        def int_list(o: tuple, level: int) -> str:
            key = (o, level)
            text = ints.get(key)
            if text is None:
                inner = "\n" + "  " * (level + 1)
                items = ("," + inner).join(map(int.__repr__, o))
                text = ints[key] = "[" + inner + items + "\n" + "  " * level + "]"
            return text

        def polynomial(o: Polynomial, level: int) -> str:
            terms = o.sorted_terms()
            if not terms:
                return "[]"
            # a record at level + 1, its fields at level + 2, triples at level + 3
            rec, field, triple = ("\n" + "  " * (level + k) for k in (1, 2, 3))
            head, middle, tail = "{" + field + '"coeff": ', "," + field + '"monomial": ', rec + "}"
            texts = pairs.get(level)
            if texts is None:
                texts = pairs[level] = {}
            parts = []
            for mon, c in terms:
                if mon:
                    try:
                        items = [texts[pair] for pair in mon]
                    except KeyError:
                        for pair in mon:
                            (r, col), e = pair
                            texts[pair] = int_list((r, col, e), level + 3)
                        items = [texts[pair] for pair in mon]
                    text = "[" + triple + ("," + triple).join(items) + field + "]"
                else:
                    text = "[]"
                parts.append(head + _quote(str(c)) + middle + text + tail)
            return "[" + rec + ("," + rec).join(parts) + "\n" + "  " * level + "]"

        def scalar(o) -> str:
            t = type(o)
            if t is str:
                return _quote(o)
            if t is int:
                return int.__repr__(o)
            if o is None:
                return "null"
            if o is True:
                return "true"
            if o is False:
                return "false"
            raise TypeError(t)

        def walk(o, level: int):
            """Append the text of o at depth `level` to buf, yielding the
            text of each polynomial, with what buf held before it."""
            t = type(o)
            if t is Polynomial:
                if buf:
                    yield "".join(buf)
                    buf.clear()
                yield polynomial(o, level)
                return
            if t is dict:
                if not o:
                    buf.append("{}")
                    return
                inner = "\n" + "  " * (level + 1)
                sep = "{" + inner
                for k in sorted(o):
                    head = keys.get(k)
                    if head is None:
                        if type(k) is not str:
                            raise TypeError(k)
                        head = keys[k] = _quote(k) + ": "
                    v = o[k]
                    if type(v) in NESTED:
                        buf.append(sep + head)
                        yield from walk(v, level + 1)
                    else:
                        buf.append(sep + head + scalar(v))
                    sep = "," + inner
                buf.append("\n" + "  " * level + "}")
                return
            if t is list or t is tuple:
                if not o:
                    buf.append("[]")
                    return
                if type(o[0]) is int and all(type(x) is int for x in o):
                    buf.append(int_list(tuple(o), level))
                    return
                inner = "\n" + "  " * (level + 1)
                sep = "[" + inner
                for x in o:
                    if type(x) in NESTED:
                        buf.append(sep)
                        yield from walk(x, level + 1)
                    else:
                        buf.append(sep + scalar(x))
                    sep = "," + inner
                buf.append("\n" + "  " * level + "]")
                return
            buf.append(scalar(o))

        yield from walk(o, 0)
        if buf:
            yield "".join(buf)


def _encode(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, cls=_Encoder)


def _descriptor_dicts(layers, n: int):
    """The minor-space layers of a schedule, with their dimensions."""
    return [{"i": i, "p": p, "degree": p, "dimension": layer_dimension(n, i)} for i, p in layers if i]


def render_diagram(mu: Partition, arrows) -> list[str]:
    """Young diagram of the conjugate partition with an arrow below column i
    for every scheduled minor space of depth i."""
    conj = mu.conjugate()
    width = conj[0]
    arrows = set(arrows)
    height = len(conj)
    if arrows:
        height = max(height, max(mu[c - 1] for c in arrows) + 1)
    lines = []
    for r in range(height):
        boxes = conj[r] if r < len(conj) else 0
        cells = []
        for c in range(1, width + 1):
            if c <= boxes:
                cells.append("[]")
            elif c in arrows and mu[c - 1] == r:
                cells.append("^ ")
            else:
                cells.append("  ")
        lines.append("".join(cells).rstrip())
    return lines


def cmd_schedule(args):
    mu = parse_partition(args.partition)
    n = mu.n
    minimal, full = minimal_schedule(mu), full_schedule(mu)
    arrows = [i for i, _ in minimal if i]
    diagram = render_diagram(mu, arrows)
    inv = [p for i, p in minimal if not i]
    fields = {
        "partition": str(mu),
        "n": n,
        "conjugate": str(mu.conjugate()),
        "invariants": inv,
        "minimal": _descriptor_dicts(minimal, n),
        "full": _descriptor_dicts(full, n),
        "arrows": arrows,
        "diagram": diagram,
    }
    lines = [
        f"partition: {mu}  (n = {n})",
        f"conjugate: {mu.conjugate()}",
        f"invariants: t_p for p = {inv[0]}..{inv[-1]}",
        "full minor spaces:    " + " ".join(f"({i},{p})" for i, p in full if i),
        "minimal minor spaces: " + " ".join(f"({i},{p})" for i, p in minimal if i),
        "dimensions:           " + " ".join(str(d["dimension"]) for d in fields["minimal"]),
        f"arrows under columns: {', '.join(map(str, arrows)) if arrows else '(none)'}",
        "",
        *diagram,
    ]
    return fields, lines, True


def cmd_generators(args):
    mu = parse_partition(args.partition)
    n = mu.n
    layers = minimal_schedule(mu)
    count = sum(layer_dimension(n, i) for i, _ in layers)
    top = max(p for _, p in layers)
    _check_max_n(n, args, f" (about {count} generators of degree up to {top})")
    families = []
    for i, p in layers:
        basis = layer_basis(n, i, p)
        families.append(
            {
                "family": _layer_name(i, p),
                "i": i,
                "p": p,
                "degree": p,
                "count": len(basis),
                "polynomials": list(basis),
            }
        )
    report = _report(args, {"partition": str(mu), "n": n, "families": families})
    workdir = os.environ.get(WORKDIR_ENV, ".")
    filename = os.path.join(workdir, f"generators_{str(mu).replace(',', '_')}.json")
    # streamed to a temporary name, so that a failed write leaves no
    # truncated file under the real one
    partial = f"{filename}.{os.getpid()}.tmp"
    try:
        with open(partial, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, cls=_Encoder)
            fh.write("\n")
        os.replace(partial, filename)
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    finally:
        if os.path.exists(partial):
            os.remove(partial)
    if args.json:
        # stdout is the file's report with "path" added; sorted, that key
        # falls just before "report", the last key of the top-level object,
        # so the file is copied up to that fixed tail (its text is ASCII)
        with open(filename) as fh:
            left = os.fstat(fh.fileno()).st_size - len(GENERATORS_TAIL)
            while left > 0 and (block := fh.read(min(BLOCK, left))):
                sys.stdout.write(block)
                left -= len(block)
        sys.stdout.write(f'\n  "path": {_quote(filename)},{GENERATORS_TAIL}')
    else:
        print(f"wrote {filename}")
        for fam in families:
            print(f"  {fam['family']}: {fam['count']} polynomial(s) of degree {fam['degree']}")
    return None, None, True


def cmd_dims(args):
    n = args.n
    _check_max_n(n, args)
    dims = list(dimension_table(n))
    ranks = [
        {"i": i, "p": p, "rank": family_rank(n, i, p)}
        for p in range(1, n + 1)
        for i in range(0, n + 1)
    ]
    lines = [f"layer dimensions for n = {n}: {dims}"]
    for entry in ranks:
        lines.append(f"  rank(i={entry['i']}, p={entry['p']}) = {entry['rank']}")
    return {"n": n, "dims": dims, "ranks": ranks}, lines, True


def cmd_witness(args):
    mu = parse_partition(args.partition)
    depths = [args.i] if args.i is not None else list(range(2, len(mu) + 1))
    entries = []
    for i in depths:
        if not (2 <= i <= len(mu)):
            raise ValueError(f"depth {i} out of range 2..{len(mu)}")
        p = mu.critical_size(i)
        necessary = admits_minor_space(mu, i)
        if necessary and minor_space_vanishes(mu.n, i, p):
            entries.append({"i": i, "kind": "zero_space", "p": p})
            continue
        kind, witness = ("necessity", necessity_witness) if necessary else ("redundancy", redundancy_witness)
        w = witness(mu, i)
        entries.append({"i": i, "kind": kind, "p": p, "witness": str(w), "witness_conjugate": str(w.conjugate())})
    lines = [f"witness partitions for {mu}:"]
    for e in entries:
        if e["kind"] == "zero_space":
            lines.append(f"  depth {e['i']}: space of size {e['p']} is zero")
        else:
            lines.append(
                f"  depth {e['i']} ({e['kind']}, p={e['p']}): {e['witness']}"
                f"  [conjugate {e['witness_conjugate']}]"
            )
    return {"partition": str(mu), "n": mu.n, "witnesses": entries}, lines, True


def cmd_membership(args):
    # argparse keeps --rel1 and --partition apart; --n goes with --rel1 only
    # and --i with --partition only
    if args.rel1:
        if args.i is not None:
            raise ValueError("--i does not apply to --rel1")
        if args.n is None:
            raise ValueError("--rel1 requires --n")
        if args.n < 2:
            # no (i, p) pair with 1 <= i <= p < n: the sweep would be vacuous
            raise ValueError("--rel1 needs --n of at least 2")
        _check_max_n(args.n, args)
        report = verify_rel1(args.n)
        lines = [f"size-monotone membership at n = {args.n}:"]
        for r in report["results"]:
            lines.append(f"  V({r['i']},{r['p']+1}) in <V({r['i']},{r['p']})>: {'yes' if r['all_member'] else 'NO'}")
        lines.append(f"result: {'PASS' if report['ok'] else 'FAIL'}")
        return report, lines, report["ok"]

    if args.n is not None:
        raise ValueError("--n applies only with --rel1")
    if args.partition is None:
        raise ValueError("membership requires --partition (or --rel1 with --n)")
    mu = parse_partition(args.partition)
    _check_max_n(mu.n, args)
    if args.i is None:
        raise ValueError("membership requires --i (or --rel1)")
    i = args.i
    if not (1 <= i <= len(mu)):
        raise ValueError(f"depth {i} out of range 1..{len(mu)}")
    if i in excluded_depths(mu):
        rep = verify_redundant(mu, i)
        lines = [
            f"excluded depth {i} of {mu} (size {rep['p']}):",
            f"  zero space: {rep['zero_space']}",
            f"  candidates: {rep['candidates']}, all member: {rep['all_member']}",
        ]
        return {"kind": "redundancy", **rep}, lines, rep["all_member"]
    p = mu.critical_size(i)
    if minor_space_vanishes(mu.n, i, p):
        raise ValueError(f"depth {i} of {mu} has a zero space at size {p}; there is nothing to certify")
    raise ValueError(f"depth {i} is scheduled for {mu}; use `verify` for minimality certificates")


def cmd_verify(args):
    mu = parse_partition(args.partition)
    n = mu.n
    _check_max_n(n, args, "; raise --max-n to force (vanishing and oracle cost grows quickly)")
    suite = args.suite
    no_points = {"vanishing": [], "sharpness": []}
    points = verify_vanishing(mu) if suite in ("all", "vanishing") else no_points
    minimality = verify_minimal(mu) if suite in ("all", "minimal") else None
    ok = all(e["all_zero"] == e["expected"] for e in points["vanishing"] + points["sharpness"])
    ok = ok and (minimality is None or minimality["ok"])
    fields = {"suite": suite, "partition": str(mu), "n": n, **points, "minimality": minimality, "ok": ok}
    lines = [f"verification for {mu} (n = {n}):"]
    for name, entries in points.items():
        for e in entries:
            status = "PASS" if e["all_zero"] == e["expected"] else "FAIL"
            lines.append(f"  {name}  (i={e['i']}, p={e['p']}): {status}")
    if minimality is not None:
        for c in minimality["checks"]:
            status = "PASS" if c["ok"] else f"FAIL ({c['status']})"
            lines.append(f"  minimality {c['kind']} (i={c['i']}, p={c['p']}): {status}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return fields, lines, ok


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
    mode.add_argument("--rel1", action="store_true", help="check V(i,p+1) in <V(i,p)> for all valid i,p (needs --n >= 2)")
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


# built once per process: building it costs ten times as much as a parse
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        fields, lines, ok = args.func(args)
    except _Refused as exc:
        print(f"refusing: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fields is not None:  # generators printed its own report
        print(_encode(_report(args, fields)) if args.json else "\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
