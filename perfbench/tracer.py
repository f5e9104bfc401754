"""Outside-in span tracer for the orbitideals package.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (name, start, end, parent span, operation id) and optional counts.
The package is not edited: the wrapper is written into every module of the
package that holds the original object, so names bound by
`from .x import f` are covered too, and class attributes are replaced on the
class.  `lru_cache` functions are wrapped outside the cache, so cache hits
are counted as calls.  Spans are kept in flat arrays and written out by
`write()` when the run ends.
"""

from __future__ import annotations

import array
import functools
import gzip
import json
import sys
import types
from collections import Counter
from time import perf_counter

PACKAGE = "orbitideals"

# Traced functions, per module: "name" for a module-level function,
# "Class.name" for a method.  Generator functions (minor_sum_family,
# partitions_of) are left out, since a span would end before their work.
TRACED = {
    "cli": ["main"],
    "membership": [
        "GradedPiece.__init__",
        "GradedPiece.contains",
        "GradedPiece.verify",
        "ideal_contains",
        "scheduled_generators",
        "verify_redundant",
        "verify_minimal",
        "verify_minor_space_certificate",
    ],
    "linalg": [
        "TriangularBasis.reduce",
        "TriangularBasis.insert",
        "TriangularBasis.contains",
        "TriangularBasis.annihilator",
        "TriangularBasis.provenance_of",
        "apply_functional",
    ],
    "polyring": [
        "monomials_of_degree",
        "Polynomial.__add__",
        "Polynomial.__radd__",
        "Polynomial.__sub__",
        "Polynomial.__neg__",
        "Polynomial.__mul__",
        "Polynomial.__rmul__",
        "Polynomial.times_monomial",
        "Polynomial.evaluate",
        "Polynomial.to_records",
    ],
    "minors": [
        "minor",
        "principal_minor_sum",
        "prefixed_minor_sum",
        "minor_sum_basis",
        "family_rank",
    ],
    "schur": ["layer_basis", "dimension_table"],
    "orbit": ["sample_orbit", "check_vanishing", "jordan_matrix", "kernel_dimensions"],
    "partitions": [
        "parse_partition",
        "full_schedule",
        "minimal_schedule",
        "admits_minor_space",
        "excluded_depths",
        "necessity_witness",
        "redundancy_witness",
        "rank_variety_schedule",
    ],
}

# cli writes JSON through the json module it imported; the tracer hands cli
# a copy of that module whose dump and dumps are traced.
JSON_TRACED = ("dump", "dumps")


def package_modules():
    """The package and every one of its modules imported so far."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.stack: list[int] = []
        self.current_op = -1
        self.current_round = 0
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self.excluded: list[tuple[int, float]] = []

    # -- recording -------------------------------------------------------------

    def _span_id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        nid = self._span_id(name)
        stack, starts, ends = self.stack, self.start, self.end
        names, parents, ops = self.name, self.parent, self.op
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if on_call is not None:
                on_call(args, kwargs)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                starts[idx] = t0
                ends[idx] = t1
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def exclude(self, seconds: float) -> None:
        """Leave `seconds` just spent by the benchmark itself, inside the
        innermost open span, out of that span's self time."""
        if self.stack:
            self.excluded.append((self.stack[-1], seconds))

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def add_distinct(self, key: str, value) -> None:
        """Record `value` under `key`; values are told apart per round."""
        self.distinct.setdefault(key, set()).add((self.current_round, value))

    # -- installation ----------------------------------------------------------

    def install(self, hooks=None) -> None:
        """Wrap every function in TRACED; `hooks` maps a span name to
        (on_call, on_return) callbacks that record counts."""
        hooks = hooks or {}
        modules = package_modules()
        for short, attrs in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr in attrs:
                span = f"{short}.{attr}"
                on_call, on_return = hooks.get(span, (None, None))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(span, original, on_call, on_return))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(span, original, on_call, on_return)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
        cli = sys.modules[f"{PACKAGE}.cli"]
        proxy = types.ModuleType(json.__name__)
        proxy.__dict__.update(vars(json))
        for attr in JSON_TRACED:
            setattr(proxy, attr, self.wrap(f"cli.json.{attr}", getattr(json, attr)))
        cli.json = proxy

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the child spans."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for k in range(n):
            p = parent[k]
            if p >= 0:
                child[p] += end[k] - start[k]
        for k, seconds in self.excluded:
            child[k] += seconds
        totals = [0.0] * len(self.names)
        name = self.name
        for k in range(n):
            totals[name[k]] += end[k] - start[k] - child[k]
        return dict(zip(self.names, totals))

    def write(self, path, ops) -> None:
        """Write every span as CSV (gzip): name, start, end, parent, op, with
        a header line holding the operation list as JSON."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# ops " + json.dumps(ops) + "\n")
            fh.write("span,name,start,end,parent,op\n")
            names = self.names
            for k in range(len(self.start)):
                fh.write(
                    f"{k},{names[self.name[k]]},{self.start[k]:.9f},{self.end[k]:.9f},"
                    f"{self.parent[k]},{self.op[k]}\n"
                )
