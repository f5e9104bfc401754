"""Benchmark of the orbitideals command line, one workload per run.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a source checkout.  The run measures set-up (fresh
interpreters importing the package), then repeats whole rounds of the
workload's operations for about T seconds, every round starting with the
package's caches empty and sampling the host's speed, to which wall_s is
scaled.  After the timed rounds it checks every
output with the independent checker and prints one JSON line: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of
a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("minimal-n5", "redundancy-n6", "vanishing-n6", "export-n6")
SETUP_SAMPLES = 3  # interpreter starts before the first round and after each round
CALIBRATION_PERIOD_S = 0.2
# Fixes the unit of wall_s: a round's time on a host whose calibration_work()
# takes this long.  See "End-to-end metrics" in the README.
REFERENCE_CALIBRATION_S = 0.0035

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import package_modules  # noqa: E402


def setup_times(count: int) -> list[float]:
    """Times from starting a fresh interpreter until `import orbitideals`
    completes, for `count` interpreters started one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time, orbitideals; print(repr(time.monotonic()))"
    samples = []
    for _ in range(count):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout
        samples.append(float(out) - t0)
    return samples


def calibration_work(table: dict, heap: list) -> int:
    """A fixed piece of pure-Python work of the kind the package spends its
    time on: dict updates, modular integer arithmetic and a heap.  Its
    duration measures the host's current speed.  It only replaces values in
    the given dict and heap, so it creates no object that the garbage
    collector tracks and never sets off a collection, whose cost would
    depend on the package's heap rather than on the host."""
    p = 2**31 - 1
    x = 12345
    for _ in range(3000):
        x = x * 48271 % p
        key = x & 1023
        table[key] = (table[key] + 3 * x) % p
        heapq.heapreplace(heap, x & 65535)
    return x


class Calibration:
    """Samples the host's speed throughout a round: a SIGALRM every
    CALIBRATION_PERIOD_S runs calibration_work() and records its duration,
    so long operations are sampled while they run.  `spent` is the total
    time taken by the samples, which the round's timing leaves out."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: list[float] = []
        self.spent = 0.0
        self.table = dict.fromkeys(range(1024), 1)
        self.heap = list(range(256))

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        calibration_work(self.table, self.heap)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        if self.tracer is not None:
            self.tracer.exclude(dt)

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Reference speed over the host's mean speed during the round."""
        return REFERENCE_CALIBRATION_S / statistics.fmean(self.samples)


def lru_caches():
    """Every lru_cache in the package, found before any tracer wraps them."""
    found = {}
    for module in package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def run(args) -> dict:
    if not (SRC / "orbitideals" / "__init__.py").is_file():
        raise SystemExit(f"error: no orbitideals package under {SRC}")
    setup_times(1)  # in a fresh checkout the first import also compiles bytecode
    setups = setup_times(SETUP_SAMPLES)

    sys.path.insert(0, str(SRC))
    from orbitideals import cli

    ops = workloads.build(args.workload, args.seed)
    caches = lru_caches()
    tracer = None
    if args.trace:
        import layers

        tracer = layers.install()

    rundir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir = rundir / "work"
    shutil.rmtree(rundir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ["ORBIT_IDEALS_WORKDIR"] = str(workdir)
    calibration = Calibration(tracer)
    try:
        round_times, raw_times, rcs, digests, output_bytes = [], [], [], [], 0
        started = time.perf_counter()
        while True:
            r = len(round_times)
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            spent, round_digests = 0.0, []
            with calibration:
                for k, op in enumerate(ops):
                    out_path = rundir / f"op{k}.json"
                    err = io.StringIO()
                    if tracer is not None:
                        tracer.current_round, tracer.current_op = r, r * len(ops) + k
                    with open(out_path, "w") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        c0, t0 = calibration.spent, time.perf_counter()
                        rc = cli.main(op.argv)
                        spent += time.perf_counter() - t0 - (calibration.spent - c0)
                    rcs.append((k, rc, err.getvalue()))
                    round_digests.append(digest(out_path))
                    output_bytes += out_path.stat().st_size
            output_bytes += sum(path.stat().st_size for path in workdir.iterdir())
            raw_times.append(spent)
            round_times.append(spent * calibration.scale())
            digests.append(round_digests)
            # spread over the run, so one slow spell of the machine weighs less
            setups += setup_times(SETUP_SAMPLES)
            # another round only if it should end within half a round of the
            # run's length, so that the rounds take about --seconds in all
            if time.perf_counter() - started + statistics.median(raw_times) / 2 > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = [f"{ops[k].label()}: exit code {rc} {err.strip()}" for k, rc, err in rcs if rc != 0]
        if any(d != digests[0] for d in digests[1:]):
            problems.append("a later round printed different output than the first")
        failed_per_round = 0
        for k, op in enumerate(ops):
            try:
                report = json.loads((rundir / f"op{k}.json").read_text())
                found, failed = workloads.check(args.workload, op, report, args.seed)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                found, failed = [f"{op.label()}: unreadable output ({exc!r})"], False
            problems += found
            failed_per_round += failed
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()

    rounds = len(round_times)
    wall_s = statistics.median(round_times)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {rounds} round(s) of {len(ops)} operations, "
        f"round times {[round(t, 3) for t in raw_times]} s as measured, "
        f"{[round(t, 3) for t in round_times]} s at the reference speed, {failed_per_round} failed per round",
        file=sys.stderr,
    )
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        import layers

        metrics = layers.metrics(tracer, rounds, output_bytes)
        metrics["trace.wall_s"] = (wall_s, "s")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}.csv.gz"
        tracer.write(trace_path, [op.label() for op in ops])
        print(f"spans written to {trace_path}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(ops) * rounds,
        "failed": failed_per_round * rounds,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
