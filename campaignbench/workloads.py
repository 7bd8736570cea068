"""The three workloads of the campaign benchmark and their correctness checks.

A workload turns ``(name, seed, scale)`` into inputs for the program's
public entry points (:class:`InjectionCampaign`, :class:`CampaignConfig`,
:func:`estimate_matrix`, :class:`PropagationAnalysis`).  One *pass* runs
every campaign of the workload once, from the call to ``execute`` until
the permeability matrix and the measures behind the paper's Tables 1-4
exist, and is then checked:

* the arrestment workloads hash every outcome and the estimated matrix
  into a fingerprint and compare it with the digest recorded in
  ``digests.json`` for the seed's input variant (the grid digests are
  recorded through serial ``execute()``, so the sharded check also pins
  serial and sharded outcomes to each other); arrestment-adaptive must
  in addition retire every target, at least one of them by confidence;
* family-batched compares every system's estimated matrix with the
  generator's exact analytical matrix.

A mismatch counts the pass's grid runs as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro import (
    CampaignConfig,
    InjectionCampaign,
    PropagationAnalysis,
    build_arrestment_model,
    build_arrestment_run,
    estimate_matrix,
    paper_test_cases,
)
from repro.injection.error_models import BitFlip, bit_flip_models

WORKLOADS = (
    "arrestment-sharded",
    "arrestment-adaptive",
    "family-batched",
)

#: The arrestment workloads ship this many input variants; ``--seed``
#: selects variant ``seed % N_VARIANTS``, and ``digests.json`` holds the
#: recorded outcome fingerprint of every variant.
N_VARIANTS = 32

#: Worker processes of arrestment-sharded (the benchmark box has 2 vCPUs).
SHARDED_WORKERS = 2

#: arrestment-adaptive's campaign seed is this plus the input variant;
#: it draws the order in which each target samples its grid trials.
ADAPTIVE_SEED_BASE = 1000

DIGESTS_PATH = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale."""

    #: Paper test cases per arrestment pass (picked by the seed).
    arrest_cases: int
    arrest_times_ms: tuple[int, ...]
    arrest_duration_ms: int
    #: Bit positions flipped on the sharded grid.
    arrest_bits: tuple[int, ...]
    #: arrestment-adaptive's fixed paper cases, Wilson half-width and
    #: per-target trial cap.  Targets whose sampled outcomes all agree
    #: retire by confidence; the others reach the cap first, so the
    #: executed count does not depend on the sampling order.
    adaptive_cases: tuple[str, ...]
    adaptive_ci_width: float
    adaptive_cap: int
    #: Generated systems per family-batched pass.
    family_systems: int
    chain_modules: int
    chain_duration_ms: int
    #: Wall time of one timed pass plus the set-up sample that follows
    #: it, on a 2-vCPU x86 box; ``--seconds`` divided by it is the
    #: number of timed passes.
    pass_seconds: dict[str, float]
    min_passes: int


SCALES = {
    "full": Scale(
        arrest_cases=2,
        arrest_times_ms=(500, 1000),
        arrest_duration_ms=1500,
        arrest_bits=(3, 11),
        adaptive_cases=("m11000-v40", "m17000-v60"),
        adaptive_ci_width=0.1,
        adaptive_cap=20,
        family_systems=20,
        chain_modules=40,
        chain_duration_ms=250,
        pass_seconds={
            "arrestment-sharded": 1.35,
            "arrestment-adaptive": 3.4,
            "family-batched": 1.7,
        },
        min_passes=5,
    ),
    # Same code path at toy size, for the benchmark's own tests.
    "toy": Scale(
        arrest_cases=1,
        arrest_times_ms=(500,),
        arrest_duration_ms=600,
        arrest_bits=(3,),
        adaptive_cases=("m11000-v40",),
        adaptive_ci_width=0.2,
        adaptive_cap=12,
        family_systems=2,
        chain_modules=4,
        chain_duration_ms=30,
        pass_seconds=dict.fromkeys(WORKLOADS, 1.0),
        min_passes=1,
    ),
}


@dataclass
class PassResult:
    """One checked pass: wall time, grid runs answered, verdict."""

    wall_s: float
    runs: int
    failed: int
    fingerprint: str
    #: ``(campaign, result, matrix)`` per campaign, for per-layer metrics.
    outputs: list
    #: Result-store directory of the pass (arrestment-sharded only).
    store_dir: Path | None = None


def analyse(matrix) -> PropagationAnalysis:
    """Build the measures behind Tables 1-4 (they are computed lazily)."""
    analysis = PropagationAnalysis(matrix)
    analysis.module_measures  # Table 2
    analysis.module_exposures  # Table 3
    analysis.signal_exposures  # Table 3
    analysis.all_ranked_paths()  # Table 4
    return analysis


def outcome_fingerprint(outputs) -> str:
    """Hash every outcome and estimated matrix of a pass, in grid order."""
    digest = hashlib.sha256()
    for _, result, matrix in outputs:
        rows = [
            [
                o.case_id,
                o.module,
                o.input_signal,
                o.scheduled_time_ms,
                o.error_model,
                o.fired_at_ms,
                sorted(o.comparison.first_divergence_ms.items()),
                o.reconverged_at_ms,
            ]
            for o in result
        ]
        digest.update(json.dumps(rows).encode())
        digest.update(json.dumps(matrix.to_jsonable(), sort_keys=True).encode())
    return digest.hexdigest()


class Workload:
    """Inputs, campaigns and checks of one named workload."""

    #: Worker processes the workload's campaigns use.
    workers = 1

    def __init__(self, name: str, seed: int, scale: str = "full") -> None:
        self.name = name
        self.seed = seed
        self.scale_name = scale
        self.scale = SCALES[scale]

    def n_passes(self, seconds: float) -> int:
        """The fixed number of timed passes for a ``--seconds`` budget."""
        nominal = self.scale.pass_seconds[self.name]
        return max(self.scale.min_passes, round(seconds / nominal))

    # -- set-up (timed by setup_probe.py) ------------------------------

    def prepare(self) -> "Workload":
        """Build the system models, test cases or generated family."""
        raise NotImplementedError

    def campaigns(self, observer=None, workdir: Path | None = None) -> list:
        """Fresh campaigns for one pass (construction is not timed)."""
        raise NotImplementedError

    # -- one pass -------------------------------------------------------

    def execute(self, campaign):
        return campaign.execute()

    def check(self, outputs) -> tuple[str, int]:
        """``(fingerprint, failed runs)`` of a finished pass."""
        raise NotImplementedError

    def run_pass(self, workdir: Path, observer=None, tracer=None) -> PassResult:
        """Execute one fresh pass and check its outputs.

        ``tracer`` (traced runs only) receives spans around each public
        call; the untraced path pays one ``nullcontext`` per call.
        """
        span = tracer.span if tracer is not None else _no_span
        campaigns = self.campaigns(observer, workdir)
        store_dir = campaigns[0].config.store
        outputs = []
        started = time.perf_counter()
        with span("pass"):
            for campaign in campaigns:
                with span("campaign.execute"):
                    result = self.execute(campaign)
                with span("estimate"):
                    matrix = estimate_matrix(result)
                with span("analysis"):
                    analyse(matrix)
                outputs.append((campaign, result, matrix))
        wall_s = time.perf_counter() - started
        fingerprint, failed = self.check(outputs)
        return PassResult(
            wall_s=wall_s,
            runs=sum(campaign.total_runs() for campaign in campaigns),
            failed=failed,
            fingerprint=fingerprint,
            outputs=outputs,
            store_dir=Path(store_dir) if store_dir is not None else None,
        )


def _no_span(name: str):
    return nullcontext()


class ArrestmentWorkload(Workload):
    """The paper's plant, checked against a recorded outcome fingerprint."""

    #: Section of ``digests.json`` the workload's fingerprints live in.
    digest_group = ""

    @property
    def variant(self) -> int:
        return self.seed % N_VARIANTS

    @property
    def digest_key(self) -> str:
        return f"{self.digest_group}/{self.scale_name}/{self.variant}"

    def prepare(self) -> "ArrestmentWorkload":
        cases = paper_test_cases()
        self.cases = {case_id: cases[case_id] for case_id in self.case_ids(sorted(cases))}
        self.model = build_arrestment_model()
        self.config = self.make_config()
        return self

    def case_ids(self, all_ids: list[str]) -> list[str]:
        raise NotImplementedError

    def make_config(self) -> CampaignConfig:
        raise NotImplementedError

    def campaign_config(self, workdir: Path | None) -> CampaignConfig:
        return self.config

    def campaigns(self, observer=None, workdir: Path | None = None) -> list:
        return [
            InjectionCampaign(
                self.model, build_arrestment_run, self.cases,
                self.campaign_config(workdir), observer=observer,
            )
        ]

    def check(self, outputs) -> tuple[str, int]:
        fingerprint = outcome_fingerprint(outputs)
        ok = fingerprint == load_digests().get(self.digest_key) and self.complete(outputs)
        failed = 0 if ok else sum(campaign.total_runs() for campaign, _, _ in outputs)
        return fingerprint, failed

    def complete(self, outputs) -> bool:
        """Checks of a pass beyond its recorded fingerprint."""
        return True


class ShardedWorkload(ArrestmentWorkload):
    """The exhaustive grid through the worker pool and a fresh result store."""

    digest_group = "grid"
    workers = SHARDED_WORKERS

    def case_ids(self, all_ids: list[str]) -> list[str]:
        return random.Random(self.variant).sample(all_ids, self.scale.arrest_cases)

    def make_config(self) -> CampaignConfig:
        scale = self.scale
        return CampaignConfig(
            duration_ms=scale.arrest_duration_ms,
            injection_times_ms=scale.arrest_times_ms,
            error_models=tuple(BitFlip(bit) for bit in scale.arrest_bits),
            backend="reference",
        )

    def campaign_config(self, workdir: Path | None) -> CampaignConfig:
        store = Path(workdir) / "store"
        shutil.rmtree(store, ignore_errors=True)
        return dataclasses.replace(self.config, store=str(store))

    def execute(self, campaign):
        return campaign.execute_parallel(max_workers=self.workers)


class AdaptiveWorkload(ArrestmentWorkload):
    """Adaptive stopping on fixed cases; the seed draws the sampling order."""

    digest_group = "adaptive"

    def case_ids(self, all_ids: list[str]) -> list[str]:
        return list(self.scale.adaptive_cases)

    def make_config(self) -> CampaignConfig:
        scale = self.scale
        return CampaignConfig(
            duration_ms=scale.arrest_duration_ms,
            injection_times_ms=scale.arrest_times_ms,
            error_models=tuple(bit_flip_models()),
            adaptive=True,
            ci_width=scale.adaptive_ci_width,
            max_trials_per_target=scale.adaptive_cap,
            backend="reference",
            seed=ADAPTIVE_SEED_BASE + self.variant,
        )

    def complete(self, outputs) -> bool:
        """Every target retired, some of them by reaching ``ci_width``."""
        for campaign, result, _ in outputs:
            rows = result.adaptive_rows()
            if {(r.module, r.input_signal) for r in rows} != set(campaign.targets):
                return False
            if not any(r.reason == "confidence" for r in rows):
                return False
        return True


class FamilyWorkload(Workload):
    """Generated XOR-mask systems plus a wide chain, batched and pruned."""

    def prepare(self) -> "FamilyWorkload":
        import numpy  # noqa: F401  - the batched kernel's dependency

        from repro.verify.generators import generate_system
        from repro.verify.oracles import default_campaign

        scale = self.scale
        self.members = []
        for index in range(scale.family_systems):
            generated = generate_system(self.seed * 1000 + index)
            shape = default_campaign(generated)
            config = shape.to_config(reuse=True, fast_forward=True, backend="batched")
            self.members.append(
                (generated, dataclasses.replace(config, static_prune=True), shape.n_bits)
            )
        chain_config = CampaignConfig(
            duration_ms=scale.chain_duration_ms,
            injection_times_ms=(3, 8),
            error_models=tuple(bit_flip_models(8)),
            backend="batched",
            static_prune=True,
        )
        self.members.append((build_chain(scale.chain_modules, self.seed), chain_config, 8))
        return self

    def campaigns(self, observer=None, workdir: Path | None = None) -> list:
        return [
            InjectionCampaign(
                generated.system, generated.run_factory, ["w0"], config, observer=observer
            )
            for generated, config, _ in self.members
        ]

    def check(self, outputs) -> tuple[str, int]:
        failed = sum(
            campaign.total_runs()
            for (campaign, _, matrix), (generated, _, n_bits) in zip(outputs, self.members)
            if not matrix.diff(generated.analytical_matrix(n_bits)).agrees()
        )
        return outcome_fingerprint(outputs), failed


def build_chain(n_modules: int, seed: int):
    """A wide chain of XOR-mask modules, each feeding its output back.

    Module ``Mi`` computes ``s<i>`` from the previous stage and from
    ``s<i>`` itself (the paper's single-module feedback, so the
    backtrack trees stay linear in the chain length).  Every fourth
    module masks its feedback input to zero, so the static flow analysis
    proves that row dead and the campaign prunes it; the seed only
    draws the other masks, so the working set does not depend on it.  The
    self-loops keep most injected errors alive to the end of the run,
    so the batched kernel steps the whole history cube.
    """
    from repro.verify.generators import (
        GeneratedModule,
        GeneratedSystem,
        GeneratedSystemSpec,
    )

    rng = random.Random(f"chain-{seed}")
    width = 16
    widths = {"x_in": width}
    modules = []
    previous = "x_in"
    for index in range(n_modules):
        out = f"s{index}"
        widths[out] = width
        feedback_mask = 0 if index % 4 == 3 else rng.getrandbits(width)
        modules.append(
            GeneratedModule(
                name=f"M{index}",
                inputs=(previous, out),
                outputs=(out,),
                masks={previous: {out: rng.getrandbits(width)}, out: {out: feedback_mask}},
            )
        )
        previous = out
    spec = GeneratedSystemSpec(
        name=f"chain{n_modules}-{seed}",
        seed=seed,
        n_slots=1,
        env_seed=rng.getrandbits(32),
        widths=widths,
        system_inputs=("x_in",),
        system_outputs=(previous,),
        modules=tuple(modules),
    )
    return GeneratedSystem(spec)


_CLASSES = {
    "arrestment-sharded": ShardedWorkload,
    "arrestment-adaptive": AdaptiveWorkload,
    "family-batched": FamilyWorkload,
}


def make(name: str, seed: int, scale: str = "full") -> Workload:
    """The named workload (not yet prepared)."""
    if name not in _CLASSES:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return _CLASSES[name](name, seed, scale)


def load_digests() -> dict:
    """Recorded outcome fingerprints, ``{digest key: sha256}``."""
    return json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
