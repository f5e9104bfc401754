"""Per-layer metrics of a traced run, computed from the tracer's spans and
counts.  Every `_s` metric is self time (span duration minus the traced
spans it called), summed over the spans listed for it and divided by the
number of rounds; every count is per round as well."""

from __future__ import annotations

from tracer import TRACED, Tracer

# metric -> span names whose self time it sums
SELF_TIME = {
    "linalg.reduce_s": ["linalg.TriangularBasis.reduce"],
    "linalg.annihilator_s": ["linalg.TriangularBasis.annihilator"],
    "linalg.insert_s": ["linalg.TriangularBasis.insert"],
    "membership.piece_build_s": ["membership.GradedPiece.__init__"],
    "membership.contains_s": ["membership.GradedPiece.contains"],
    "polyring.times_monomial_s": ["polyring.Polynomial.times_monomial"],
    "polyring.monomials_of_degree_s": ["polyring.monomials_of_degree"],
    "polyring.evaluate_s": ["polyring.Polynomial.evaluate"],
    "polyring.arith_s": [
        f"polyring.Polynomial.{op}"
        for op in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__")
    ],
    "polyring.to_records_s": ["polyring.Polynomial.to_records"],
    "minors.expand_s": ["minors.minor", "minors.prefixed_minor_sum", "minors.principal_minor_sum"],
    "minors.basis_s": ["minors.minor_sum_basis"],
    "schur.layer_basis_s": ["schur.layer_basis"],
    "orbit.sample_s": ["orbit.sample_orbit", "orbit.jordan_matrix", "orbit.kernel_dimensions"],
    "partitions.schedule_s": [f"partitions.{name}" for name in TRACED["partitions"]],
    "cli.serialize_s": ["cli.json.dump", "cli.json.dumps"],
}


def install() -> Tracer:
    """Wrap the package and attach the hooks that count work per layer."""
    tracer = Tracer()
    count = tracer.count

    def inserted(args, independent):
        count("linalg.inserts")
        count("linalg.rank", bool(independent))

    def piece_built(args, _):
        piece = args[0]
        count("membership.pieces")
        count("membership.piece_rows", len(piece.rows))
        count("membership.piece_nonzeros", piece.nonzeros)
        count("membership.modular_pieces", piece.path == "modular")
        key = "membership.piece_rows_max"
        tracer.counts[key] = max(tracer.counts[key], len(piece.rows))

    def minor_called(args, kwargs):
        count("minors.minor_calls")
        tracer.add_distinct("minors.minor_distinct", (args, tuple(sorted(kwargs.items()))))

    def sampled(args, sample):
        count("orbit.samples")
        tracer.add_distinct("orbit.distinct_points", sample.matrix)

    tracer.install(
        {
            "linalg.TriangularBasis.insert": (None, inserted),
            "membership.GradedPiece.__init__": (None, piece_built),
            "membership.GradedPiece.contains": (lambda a, k: count("membership.queries"), None),
            "polyring.Polynomial.evaluate": (lambda a, k: count("polyring.evaluations"), None),
            "minors.minor": (minor_called, None),
            "orbit.sample_orbit": (None, sampled),
        }
    )
    return tracer


def metrics(tracer: Tracer, rounds: int, output_bytes: int) -> dict:
    """Every per-layer metric, as name -> (value per round, unit)."""
    self_times = tracer.self_times()
    out = {}
    for name, spans in SELF_TIME.items():
        out[name] = (sum(self_times.get(s, 0.0) for s in spans) / rounds, "s")
    c = tracer.counts
    for name in (
        "linalg.inserts",
        "linalg.rank",
        "membership.pieces",
        "membership.piece_rows",
        "membership.piece_nonzeros",
        "membership.modular_pieces",
        "membership.queries",
        "polyring.evaluations",
        "minors.minor_calls",
        "orbit.samples",
    ):
        out[name] = (c[name] / rounds, "count")
    out["membership.piece_rows_max"] = (c["membership.piece_rows_max"], "count")
    for name in ("minors.minor_distinct", "orbit.distinct_points"):
        out[name] = (len(tracer.distinct.get(name, ())) / rounds, "count")
    out["linalg.insert_yield"] = (c["linalg.rank"] / c["linalg.inserts"] if c["linalg.inserts"] else 0.0, "ratio")
    out["orbit.sample_yield"] = (
        out["orbit.distinct_points"][0] / out["orbit.samples"][0] if c["orbit.samples"] else 0.0,
        "ratio",
    )
    out["cli.output_bytes"] = (output_bytes / rounds, "bytes")
    return out
