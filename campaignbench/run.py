"""Campaign benchmark: grid runs/s, set-up time and peak memory per workload.

    python3 campaignbench/run.py --workload arrestment-sharded --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones (``runs_per_s``,
``setup_s``, ``peak_rss_mb``), with ``--trace 1`` the per-layer ones.
See README.md for workloads, metric definitions and the protocol.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / "out"

#: Seconds ``host_loop_seconds`` takes on the benchmark box (a 2-vCPU
#: x86 virtual machine) while no other tenant slows it down.  The box
#: runs up to 1.5x slower for minutes at a time when its neighbours are
#: busy; every timing is scaled back to this speed (README.md).
REFERENCE_LOOP_S = 0.0137


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "toy"), default="full",
        help="input size; toy runs the same code path in seconds (tests)",
    )
    parser.add_argument(
        "--trace-file", type=Path, default=None,
        help="Chrome trace output of --trace 1 "
        "(default: campaignbench/out/trace-WORKLOAD.json)",
    )
    return parser.parse_args(argv)


def quartile_spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def rounded_up(count: int, step: int) -> int:
    return -(-count // step) * step


def rotate_cpu(index: int, cpus: list[int] | None) -> None:
    """Pin this process (and children it starts) to the index-th CPU.

    On a shared virtual machine each vCPU is slowed by other tenants
    independently, and the scheduler keeps a lone busy process on one
    vCPU for a long time.  Rotating single-process passes over every
    CPU makes a run sample all of them instead of whichever one it
    happened to land on.  ``cpus=None`` (a workload with worker
    processes, which need every CPU) leaves the affinity alone.
    """
    if cpus:
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})


def setup_sample(args) -> float:
    """Set-up seconds of the workload, timed in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"),
         args.workload, str(args.seed), args.scale],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def host_loop_seconds() -> float:
    """Time a fixed pure-Python loop: the host's current speed."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - started


@dataclass
class Measurements:
    """Checked passes of one run (warm-up first) and what was timed.

    Every timing is scaled to the host's reference speed: multiplied by
    ``REFERENCE_LOOP_S`` over the mean of the host-speed loops timed
    just before and just after it, on the same CPU.
    """

    passes: list = field(default_factory=list)
    #: Scaled grid runs per second of each timed pass.
    rates: list[float] = field(default_factory=list)
    #: Scaled set-up seconds, one sample after each timed pass.
    setup_s: list[float] = field(default_factory=list)
    #: Unscaled ``(runs/s, set-up s)`` and every host-loop time, as timed.
    raw_rates: list[float] = field(default_factory=list)
    raw_setup_s: list[float] = field(default_factory=list)
    loop_s: list[float] = field(default_factory=list)
    #: Peak RSS of this process plus its largest child (MB), read after
    #: the first timed pass and before any set-up sample starts.
    peak_rss_mb: float = 0.0


def measure(workload, args, n_passes: int, cpus: list[int] | None,
            setups: bool) -> Measurements:
    """One untimed warm-up pass, then ``n_passes`` timed ones.

    With ``setups``, each timed pass is followed by one set-up sample on
    the same CPU, so passes and set-up samples see the same phases of
    the host's speed.
    """
    measured = Measurements()
    for index in range(1 + n_passes):
        rotate_cpu(index, cpus)
        gc.collect()
        before = host_loop_seconds()
        result = workload.run_pass(WORKDIR)
        after = host_loop_seconds()
        if result.store_dir is not None:
            shutil.rmtree(result.store_dir, ignore_errors=True)
        result.outputs = None  # release campaign results before the next pass
        measured.passes.append(result)
        if index == 0:
            continue
        rate = result.runs / result.wall_s
        measured.raw_rates.append(rate)
        measured.rates.append(rate * (before + after) / 2 / REFERENCE_LOOP_S)
        measured.loop_s += [before, after]
        if index == 1:
            # Set-up samples are children too; read before the first one.
            own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            measured.peak_rss_mb = (own + child) / 1024.0
        if setups:
            sample = setup_sample(args)
            after_setup = host_loop_seconds()
            measured.raw_setup_s.append(sample)
            measured.setup_s.append(sample * REFERENCE_LOOP_S * 2 / (after + after_setup))
            measured.loop_s.append(after_setup)
    return measured


def traced_pass(workload, args, untraced_median_s: float):
    """One observed pass; returns it with its per-layer metrics."""
    from tracing import LAYER_UNITS, Tracer, instrument, layer_metrics

    from repro.obs import CampaignObserver
    from repro.obs.events import EventStream, RingBufferSink
    from repro.obs.metrics import MetricsRegistry

    sink = RingBufferSink(capacity=None)
    observer = CampaignObserver(events=EventStream(sink), metrics=MetricsRegistry())
    tracer = Tracer()
    gc.collect()
    undo = instrument(tracer)
    try:
        traced = workload.run_pass(WORKDIR, observer=observer, tracer=tracer)
    finally:
        undo()
    metrics = layer_metrics(
        traced, tracer, observer.metrics, sink.records, untraced_median_s,
        workers=workload.workers,
    )
    if traced.store_dir is not None:
        shutil.rmtree(traced.store_dir, ignore_errors=True)
    trace_file = args.trace_file or WORKDIR / f"trace-{args.workload}.json"
    tracer.write_chrome_trace(
        trace_file,
        {"workload": args.workload, "seed": args.seed, "scale": args.scale,
         "pass_wall_s": traced.wall_s},
    )
    print(f"trace written to {trace_file}")
    print(f"{'span':<28}{'calls':>8}{'total s':>12}{'self s':>12}{'self %':>9}")
    for name, (calls, total, own) in sorted(
        tracer.totals().items(), key=lambda item: -item[1][2]
    ):
        print(f"{name:<28}{calls:>8}{total:>12.4f}{own:>12.4f}"
              f"{100 * own / traced.wall_s:>8.1f}%")
    return traced, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in LAYER_UNITS.items()
    }


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and wait for it.

    The program's shared-memory Golden Runs start the tracker on first
    use, and it outlives this process unless stopped: a run must leave
    no process behind.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    finally:
        stop_resource_tracker()


def run(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Compile once, untimed, so neither set-up nor passes include it.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.scale).prepare()
    all_cpus = sorted(os.sched_getaffinity(0))
    cpus = all_cpus if workload.workers == 1 else None
    # Whole rounds over the CPUs, so each contributes equally to the median.
    n_passes = rounded_up(workload.n_passes(args.seconds), len(cpus or [0]))
    measured = measure(workload, args, n_passes, cpus, setups=not args.trace)
    passes = measured.passes
    timed = passes[1:]
    rates = measured.rates
    attempted = sum(p.runs for p in passes)
    failed = sum(p.failed for p in passes)
    # Every pass of one seed must produce the same outcomes.
    failed += sum(p.runs for p in passes if p.fingerprint != passes[0].fingerprint
                  and not p.failed)
    print(f"{args.workload} seed {args.seed}: {len(timed)} timed passes of "
          f"{timed[0].runs} grid runs (+1 warm-up); runs/s median "
          f"{statistics.median(rates):.3f}, IQR/median {quartile_spread(rates):.3f}; "
          f"unscaled {statistics.median(measured.raw_rates):.3f}; host loop median "
          f"{1000 * statistics.median(measured.loop_s):.2f} ms "
          f"(reference {1000 * REFERENCE_LOOP_S:.1f} ms)")
    print(f"pass runs/s: {', '.join(f'{rate:.2f}' for rate in rates)}")

    os.sched_setaffinity(0, all_cpus)
    if args.trace:
        untraced_median_s = statistics.median(p.wall_s for p in timed)
        traced, metrics = traced_pass(workload, args, untraced_median_s)
        attempted += traced.runs
        failed += traced.failed
        if traced.fingerprint != passes[0].fingerprint and not traced.failed:
            failed += traced.runs
    else:
        print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in measured.setup_s)}; "
              f"unscaled median {statistics.median(measured.raw_setup_s):.4f}")
        metrics = {
            "runs_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(measured.setup_s), "unit": "s"},
            "peak_rss_mb": {"value": measured.peak_rss_mb, "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
