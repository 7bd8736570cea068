"""Compare two checkouts with the campaign benchmark, in alternating pairs.

    python3 campaignbench/compare.py --base ../parent --change . \\
        --workload arrestment-adaptive --pairs 10

Pair ``i`` runs ``campaignbench/run.py`` of both checkouts with seed
``first-seed + i``, back to back, the base first in even pairs and the
change first in odd ones.  A shift of the host's speed then hits both
sides of a pair alike.  For every end-to-end metric the report gives
each side's median and spread (IQR / median over its runs) and the
per-pair ratio change / base: its median and its spread, and in how
many pairs the change read better.  A ratio median worse than the
metric's bound in ``BENCHMARK.json`` is flagged, and the command then
exits with code 1.  Comparing a checkout with a copy of itself (an A/A comparison) shows
the noise a real comparison has to beat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's result here as JSON")
    return parser.parse_args(argv)


def spread(values: list[float]) -> float:
    """IQR / median, with the quartiles of ``statistics.quantiles``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "campaignbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed}: "
                         f"{result['failed']} of {result['attempted']} runs failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    record = {}
    regressions = 0
    for workload in args.workload:
        runs = {"base": [], "change": []}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, seed, seconds))
            print(f"{workload} pair {pair + 1}/{args.pairs} (seed {seed}): "
                  + ", ".join(f"{name} {runs['base'][-1][name]:.4g} -> "
                              f"{runs['change'][-1][name]:.4g}" for name in metrics),
                  flush=True)
        record[workload] = runs
        print(f"\n{workload}: {args.pairs} alternating pairs")
        print(f"{'metric':<14}{'base med':>11}{'spread':>8}{'change med':>12}"
              f"{'spread':>8}{'ratio med':>11}{'spread':>8}{'wins':>7}  verdict")
        for name, metric in metrics.items():
            base = [run[name] for run in runs["base"]]
            change = [run[name] for run in runs["change"]]
            ratios = [c / b for b, c in zip(base, change)]
            ratio = statistics.median(ratios)
            sign = -1 if metric["better"] == "lower" else 1
            worse = sign * (1 - ratio)
            wins = sum(sign * (r - 1) > 0 for r in ratios)
            verdict = "worse than bound" if worse > metric["bound"] else "within bound"
            regressions += worse > metric["bound"]
            print(f"{name:<14}{statistics.median(base):>11.4g}{spread(base):>8.3f}"
                  f"{statistics.median(change):>12.4g}{spread(change):>8.3f}"
                  f"{ratio:>11.3f}{spread(ratios):>8.3f}{wins:>4}/{len(ratios):<2}"
                  f"  {verdict}")
        print()
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
