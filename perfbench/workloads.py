"""The four workloads: their operations and the checks of their outputs.

One operation is one `orbitideals.cli.main(argv)` call with `--json`.  Each
check reads the JSON the operation printed (and, for `generators`, the file
it wrote) and compares it with the independent checker or with a property
the method must have, never with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

import checker as C

# Partitions of 7 added to vanishing-n6: their families and invariants of
# degree up to 3 have many more terms at n = 7, so point evaluation carries
# weight.  Partitions of 7 with families of degree 4 or more are left out:
# selecting their bases alone takes 5 to 13 s each.
VANISHING_N7 = ((3, 1, 1, 1, 1), (2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1))


def fmt(parts) -> str:
    return ",".join(map(str, parts))


def parse(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


class Op:
    """One CLI call: its arguments and what the check needs to know."""

    def __init__(self, argv, partition=None, depth=None):
        self.argv = list(argv)
        self.partition = partition
        self.depth = depth

    def label(self) -> str:
        return " ".join(self.argv)


def build(workload: str, seed: int) -> list[Op]:
    s = ["--seed", str(seed)]
    ops = []
    if workload == "minimal-n5":
        for n in range(1, 6):
            for mu in C.partitions(n):
                ops.append(Op(["verify", "minimal", "--partition", fmt(mu), "--json", *s], mu))
    elif workload == "redundancy-n6":
        for n in range(1, 7):
            for mu in C.partitions(n):
                for i in C.excluded(mu):
                    argv = ["membership", "--partition", fmt(mu), "--i", str(i), "--json", "--max-n", "6", *s]
                    ops.append(Op(argv, mu, i))
        ops.append(Op(["membership", "--rel1", "--n", "5", "--json", *s]))
    elif workload == "vanishing-n6":
        partitions = [mu for n in range(1, 7) for mu in C.partitions(n)] + list(VANISHING_N7)
        for mu in partitions:
            max_n = "6" if sum(mu) <= 6 else "7"
            argv = ["verify", "vanishing", "--partition", fmt(mu), "--json", "--max-n", max_n, *s]
            ops.append(Op(argv, mu))
    elif workload == "export-n6":
        for n in range(1, 7):
            for mu in C.partitions(n):
                ops.append(Op(["generators", "--partition", fmt(mu), "--json", "--max-n", "6", *s], mu))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# -- checks --------------------------------------------------------------------
#
# Each check returns (problems, failed): problems are wrong outputs, failed
# is True when the output shows the one known fault that is counted as a
# failed operation (generators exporting whole spans).


def check(workload: str, op: Op, report: dict, seed: int) -> tuple[list[str], bool]:
    if workload == "minimal-n5":
        return check_minimal(op.partition, report), False
    if workload == "redundancy-n6":
        if op.partition is None:
            return check_rel1(report, 5), False
        return check_redundancy(op.partition, op.depth, report), False
    if workload == "vanishing-n6":
        return check_vanishing(op.partition, report, seed), False
    return check_export(op.partition, report, seed)


def check_vanishing(mu, report: dict, seed: int) -> list[str]:
    problems = []
    n = sum(mu)
    want_vanishing = [(0, p) for p in range(1, mu[0] + 1)] + C.full_spaces(mu)
    want_sharp = [
        (i, C.critical_size(mu, i) - 1)
        for i in range(1, len(mu) + 1)
        if C.critical_size(mu, i) > i
    ]
    if [(e["i"], e["p"]) for e in report["vanishing"]] != want_vanishing:
        problems.append("vanishing families differ from the full schedule")
    if [(e["i"], e["p"]) for e in report["sharpness"]] != want_sharp:
        problems.append("sharpness families differ from one below the critical sizes")
    if report["ok"] is not True:
        problems.append("report is not ok")
    point = C.Point(C.orbit_point(mu, f"vanishing:{seed}:0"))
    for e in report["vanishing"]:
        if e["all_zero"] is not True:
            problems.append(f"family ({e['i']},{e['p']}) reported nonzero")
        elif any(point.family_values(e["i"], e["p"])):
            problems.append(f"checker finds family ({e['i']},{e['p']}) nonzero on the orbit")
    for e in report["sharpness"]:
        if e["all_zero"] is not False or "witness" not in e:
            problems.append(f"sharpness ({e['i']},{e['p']}) has no witness")
            continue
        # nonzero on the orbit means nonzero at a generic point; try a few
        points = [point] + [C.Point(C.orbit_point(mu, f"vanishing:{seed}:{k}")) for k in (1, 2, 3)]
        if not any(any(pt.family_values(e["i"], e["p"])) for pt in points):
            problems.append(f"checker finds sharpness family ({e['i']},{e['p']}) zero")
    return [f"{fmt(mu)}: {p}" for p in problems]


def _functional_holds(mu, p: int, functional) -> bool:
    """A non-member functional takes a nonzero value on t_p and vanishes on
    every row g*m of the degree-p piece of the other generators."""
    n = sum(mu)
    lam = {C.monomial_from_records(n, t["monomial"]): Fraction(t["coeff"]) for t in functional}

    def value(f):
        return sum(c * lam.get(m, 0) for m, c in f.items())

    if value(C.invariant_poly(n, p)) == 0:
        return False
    gens = [C.invariant_poly(n, q) for q in range(1, p)]
    for i, pi in C.minimal_spaces(mu):
        if pi <= p:
            gens.extend(C.layer_reps(n, i, pi))
    for g in gens:
        degree = len(next(iter(g)))
        terms = list(g.items())
        for m in C.monomials(n * n, p - degree):
            s = 0
            for mon, c in terms:
                v = lam.get(tuple(sorted(mon + m)))
                if v:
                    s += c * v
            if s:
                return False
    return True


def check_minimal(mu, report: dict) -> list[str]:
    problems = []
    n = sum(mu)
    m = report["minimality"]
    spaces = C.minimal_spaces(mu)
    want = (
        [("minor_space", i, p) for i, p in spaces]
        + [("invariant", 0, p) for p in range(1, mu[0] + 1)]
        + [("excluded", i, C.critical_size(mu, i)) for i in C.excluded(mu)]
    )
    if [(c["kind"], c["i"], c["p"]) for c in m["checks"]] != want:
        problems.append("checks differ from the minimal schedule")
    if report["ok"] is not True or m["ok"] is not True:
        problems.append("report is not ok")
    for c in m["checks"]:
        i, p, d = c["i"], c["p"], c["detail"]
        where = f"{c['kind']} ({i},{p})"
        if c["ok"] is not True:
            problems.append(f"{where} is not ok")
        if c["kind"] == "minor_space":
            witness = parse(d["witness"])
            x = d["point"]
            if sum(witness) != n or C.jordan_type(x) != witness:
                problems.append(f"{where}: point is not on the witness orbit")
                continue
            pt = C.Point(x)
            earlier = [pt.invariant(q) for q in range(1, mu[0] + 1)]
            for j, pj in spaces:
                if j < i:
                    earlier += pt.family_values(j, pj)
            if any(earlier):
                problems.append(f"{where}: an earlier generator is nonzero at the point")
            if not any(pt.family_values(i, p)):
                problems.append(f"{where}: no depth-{i} sum is nonzero at the point")
        elif c["kind"] == "invariant":
            status = c["status"]
            if mu == (n,):
                comp = C.companion(n, p)
                values = [C.invariant(comp, q) for q in range(1, n + 1)]
                if any(v for q, v in enumerate(values, 1) if q != p) or not values[p - 1]:
                    problems.append(f"{where}: companion point does not separate t_{p}")
            if status == "non_member":
                if not _functional_holds(mu, p, d["functional"]):
                    problems.append(f"{where}: functional does not certify non-membership")
            elif not (status == "consistent_non_member" and mu == (n,)):
                problems.append(f"{where}: verdict {status} has no certificate")
        else:
            zero = C.zero_space(n, i, p)
            candidates = 0 if zero else C.layer_dimension(n, i)
            if c["status"] != "member" or d["zero_space"] != zero or d["candidates"] != candidates:
                problems.append(f"{where}: excluded depth not certified as {candidates} members")
    return [f"{fmt(mu)}: {p}" for p in problems]


def check_redundancy(mu, i: int, report: dict) -> list[str]:
    problems = []
    n = sum(mu)
    p = C.critical_size(mu, i)
    if (report["kind"], parse(report["partition"]), report["i"], report["p"]) != ("redundancy", mu, i, p):
        return [f"{fmt(mu)} i={i}: report is about something else"]
    zero = C.zero_space(n, i, p)
    if report["zero_space"] != zero or report["all_member"] is not True:
        problems.append("zero space or all_member is wrong")
    if zero:
        if report["verdicts"]:
            problems.append("a zero space has candidates")
        return [f"{fmt(mu)} i={i}: {p}" for p in problems]
    labels = [f"t_{q}" for q in range(1, mu[0] + 1)]
    gens = [C.invariant_poly(n, q) for q in range(1, mu[0] + 1)]
    for j, pj in C.minimal_spaces(mu):
        if j < i:
            reps = C.layer_reps(n, j, pj)
            labels += [f"U_({j},{pj})[{k}]" for k in range(len(reps))]
            gens += reps
    if report["generators"] != labels:
        problems.append("generator labels differ from the earlier scheduled layers")
    candidates = C.layer_reps(n, i, p)
    if report["candidates"] != len(candidates) or len(report["verdicts"]) != len(candidates):
        problems.append("candidate count differs from the layer dimension")
    for k, (verdict, cand) in enumerate(zip(report["verdicts"], candidates)):
        if verdict["status"] != "member":
            problems.append(f"candidate {k} is not a member")
            continue
        acc: dict = {}
        for t in verdict["combination"]:
            mon = C.monomial_from_records(n, t["monomial"])
            C.poly_add(acc, C.poly_times_monomial(gens[t["gen"]], mon), Fraction(t["coeff"]))
        if acc != cand:
            problems.append(f"combination {k} does not multiply out to its candidate")
    return [f"{fmt(mu)} i={i}: {p}" for p in problems]


def check_rel1(report: dict, n: int) -> list[str]:
    want = [{"i": i, "p": p, "all_member": True} for p in range(1, n) for i in range(1, p + 1)]
    if report["kind"] != "rel1" or report["results"] != want or report["ok"] is not True:
        return [f"rel1 n={n}: some inclusion V(i,p+1) in <V(i,p)> is missing or fails"]
    return []


def check_export(mu, report: dict, seed: int) -> tuple[list[str], bool]:
    problems = []
    n = sum(mu)
    want = [(0, p) for p in range(1, mu[0] + 1)] + C.minimal_spaces(mu)
    families = report["families"]
    if [(f["i"], f["p"]) for f in families] != want:
        problems.append("families differ from the minimal schedule")
    with open(report["path"]) as fh:
        written = json.load(fh)
    if written != {k: v for k, v in report.items() if k != "path"}:
        problems.append("written file differs from the printed report")
    point = C.orbit_point(mu, f"export:{seed}")
    failed = False
    for f in families:
        i, p, polys = f["i"], f["p"], f["polynomials"]
        if f["count"] != len(polys):
            problems.append(f"{f['family']}: count differs from the polynomials listed")
        if i == 0:
            if [C.poly_from_records(n, r) for r in polys] != [C.invariant_poly(n, p)]:
                problems.append(f"{f['family']}: not the invariant t_{p}")
        elif len(polys) == comb(n, min(i, p, n - p)) ** 2:
            failed = True  # the known fault: the whole depth-<=i span instead of the layer
        elif [C.poly_from_records(n, r) for r in polys] != list(C.layer_reps(n, i, p)):
            problems.append(f"{f['family']}: not the layer representatives of depth {i}")
        for k, records in enumerate(polys):
            if not records or C.evaluate_records(point, records) != 0:
                problems.append(f"{f['family']}[{k}] is zero or nonzero on the orbit")
    return [f"{fmt(mu)}: {p}" for p in problems], failed
