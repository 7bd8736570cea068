"""The benchmark's own tests, at toy size through the real code path.

    python3 -m pytest campaignbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import workloads
from tracing import Tracer, instrument

from repro.injection.outcomes import CampaignResult
from repro.obs import CampaignObserver
from repro.obs.events import EventStream, RingBufferSink
from repro.obs.metrics import MetricsRegistry

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int, tmp_path: Path, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "toy",
         "--trace-file", str(tmp_path / "trace.json")],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def expected_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    done = run_benchmark(workload, 0, tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    samples = next(line for line in done.stdout.splitlines()
                   if line.startswith("setup_s samples:"))
    passes = next(line for line in done.stdout.splitlines() if "timed passes" in line)
    n_passes = int(passes.split(": ")[1].split()[0])
    assert len(samples.split(":")[1].split(",")) == n_passes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_a_chrome_trace(workload, tmp_path):
    done = run_benchmark(workload, 1, tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected_units("per_layer")
    assert 0.0 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    trace = json.loads((tmp_path / "trace.json").read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and {e["name"] for e in spans} >= {"pass", "campaign.execute"}
    for event in spans:
        assert event["dur"] >= 0 and event["ts"] >= 0
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)


def session_members(sid: int) -> list[str]:
    """Command lines of the processes in session ``sid`` (Linux).

    Zombies count: an orphan left behind may be re-parented to a process
    that never reaps it.
    """
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            cmdline = (stat.parent / "cmdline").read_bytes()
        except OSError:  # the process ended meanwhile
            continue
        if int(fields[3]) == sid:
            members.append(cmdline.replace(b"\0", b" ").decode(errors="replace"))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_a_sharded_run_leaves_no_process_behind(trace, tmp_path):
    # Worker pools and the shared-memory resource tracker are children
    # of the run, in the session it leads.
    run = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "arrestment-sharded",
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "toy",
         "--trace-file", str(tmp_path / "trace.json")],
        cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert run.wait(timeout=300) == 0
    assert session_members(run.pid) == []


def test_without_program_source_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "campaignbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "campaignbench/run.py", "--workload", "arrestment-sharded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def corrupt_first_outcome(result: CampaignResult) -> CampaignResult:
    """Flip one output's verdict in ``result``'s first outcome, in place."""
    first = next(iter(result))
    output = result.system.module(first.module).outputs[0]
    divergence = first.comparison.first_divergence_ms
    divergence[output] = None if divergence[output] is not None else first.scheduled_time_ms
    return result


@pytest.mark.parametrize("workload", ["arrestment-adaptive", "family-batched"])
def test_a_corrupted_outcome_counts_as_failed(workload, tmp_path):
    bench = workloads.make(workload, 3, "toy").prepare()
    clean = bench.run_pass(tmp_path)
    assert clean.failed == 0
    execute = bench.execute
    bench.execute = lambda campaign: corrupt_first_outcome(execute(campaign))
    corrupted = bench.run_pass(tmp_path)
    assert corrupted.failed >= 1
    assert corrupted.fingerprint != clean.fingerprint


def test_a_different_seed_changes_the_inputs():
    first = workloads.make("arrestment-sharded", 1, "toy").prepare()
    second = workloads.make("arrestment-sharded", 2, "toy").prepare()
    assert first.cases != second.cases
    adaptive = [workloads.make("arrestment-adaptive", seed, "toy").prepare()
                for seed in (1, 2)]
    assert adaptive[0].cases == adaptive[1].cases
    assert adaptive[0].config.seed != adaptive[1].config.seed
    specs = [
        [generated.spec.to_jsonable() for generated, _, _ in
         workloads.make("family-batched", seed, "toy").prepare().members]
        for seed in (1, 2)
    ]
    assert specs[0] != specs[1]


def test_adaptive_retires_some_targets_by_confidence(tmp_path):
    bench = workloads.make("arrestment-adaptive", 4, "toy").prepare()
    [campaign] = bench.campaigns(workdir=tmp_path)
    result = campaign.execute()
    assert "confidence" in {row.reason for row in result.adaptive_rows()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_passes_have_one_fingerprint(workload, tmp_path):
    bench = workloads.make(workload, 5, "toy").prepare()
    untraced = bench.run_pass(tmp_path)
    observer = CampaignObserver(
        events=EventStream(RingBufferSink(capacity=None)), metrics=MetricsRegistry()
    )
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        traced = bench.run_pass(tmp_path, observer=observer, tracer=tracer)
    finally:
        undo()
    assert untraced.failed == traced.failed == 0
    assert traced.fingerprint == untraced.fingerprint
