"""Steadiness and reference figures: repeat each workload and summarise.

    python3 perfbench/steady.py [--trace] [--first-seed 1]

Runs `perfbench/run.py` ten times on each workload, once per seed (seeds
first-seed .. first-seed + 9), one run at a time, each run as long as
run_seconds in BENCHMARK.json, and prints for every
end-to-end metric the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread (q3 - q1) /
median.  The bounds in BENCHMARK.json are set from this spread.  With
--trace it also makes one traced run per seed, right before or after the
untraced run of that seed (the order alternates), and prints the median of
every per-layer metric and the tracing overhead: the median over seeds of
traced wall_s minus untraced wall_s.  Pairing the runs keeps slow and fast
spells of the machine out of the overhead.  Run it from the root of a
source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

RUNS = 10
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    return result


def summary(values) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return f"median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + RUNS)
    for workload in WORKLOADS:
        plain, traced = [], []
        for k, seed in enumerate(seeds):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            for trace in order if args.trace else (0,):
                (traced if trace else plain).append(one_run(workload, seed, trace))
        shares = {r["failed"] / r["attempted"] for r in plain + traced}
        print(f"== {workload}: {RUNS} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"failed share {sorted(shares)}", flush=True)
        for name, m in plain[0]["metrics"].items():
            print(f"  {name:32s} {summary([r['metrics'][name]['value'] for r in plain])}  {m['unit']}")
        if not args.trace:
            continue
        for name, m in traced[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in traced]
            print(f"  {name:32s} median {statistics.median(values):12.6g}  {m['unit']}")
        untraced = statistics.median(r["metrics"]["wall_s"]["value"] for r in plain)
        overhead = statistics.median(
            t["metrics"]["trace.wall_s"]["value"] - u["metrics"]["wall_s"]["value"]
            for t, u in zip(traced, plain)
        )
        print(f"  tracing overhead: {overhead:.3f} s, {overhead / untraced:.1%} of the untraced "
              f"wall_s median {untraced:.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
