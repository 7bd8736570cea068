"""Tests for grid-sharded parallel campaign execution."""

from __future__ import annotations

import pytest

from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import BitFlip, RandomBitFlip
from repro.injection.estimator import estimate_matrix
from repro.model.errors import CampaignError

from tests.conftest import build_toy_model, toy_factory


def make_campaign(**overrides) -> InjectionCampaign:
    config = dict(
        duration_ms=30,
        injection_times_ms=(5, 15),
        # Include a stochastic model so seed derivation is covered.
        error_models=(BitFlip(15), BitFlip(3), RandomBitFlip()),
        seed=77,
    )
    config.update(overrides)
    return InjectionCampaign(
        build_toy_model(),
        toy_factory,
        {"c0": None, "c1": None, "c2": None},
        CampaignConfig(**config),
    )


def outcome_records(result):
    return [
        (o.case_id, o.module, o.input_signal, o.scheduled_time_ms,
         o.error_model, o.fired_at_ms, o.comparison.first_divergence_ms)
        for o in result
    ]


class TestExecuteParallel:
    def test_identical_to_serial(self):
        serial = make_campaign().execute()
        parallel = make_campaign().execute_parallel(max_workers=2)
        assert len(parallel) == len(serial)
        assert outcome_records(parallel) == outcome_records(serial)

    def test_identical_to_naive_serial(self):
        """Grid sharding + prefix reuse matches the naive full-re-run path."""
        naive = make_campaign(reuse_golden_prefix=False).execute()
        parallel = make_campaign().execute_parallel(max_workers=2, chunk_size=1)
        assert outcome_records(parallel) == outcome_records(naive)

    def test_matrix_identical(self):
        serial = estimate_matrix(make_campaign().execute())
        parallel = estimate_matrix(make_campaign().execute_parallel(max_workers=3))
        assert serial.to_jsonable() == parallel.to_jsonable()

    def test_progress_reports_completed_runs(self):
        """Progress counts injection runs per finished chunk, not cases."""
        seen = []
        make_campaign().execute_parallel(
            max_workers=2,
            chunk_size=1,
            progress=lambda done, total: seen.append((done, total)),
        )
        # 3 cases x 2 targets = 6 single-target chunks of 6 runs each.
        assert seen == [(6, 36), (12, 36), (18, 36), (24, 36), (30, 36), (36, 36)]

    def test_chunking_beyond_case_count(self):
        """chunk_size=1 yields more work items than test cases."""
        result = make_campaign().execute_parallel(max_workers=4, chunk_size=1)
        assert len(result) == make_campaign().total_runs()

    def test_single_worker(self):
        result = make_campaign().execute_parallel(max_workers=1)
        assert len(result) == make_campaign().total_runs()

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(CampaignError):
            make_campaign().execute_parallel(max_workers=1, chunk_size=0)

    def test_golden_runs_collected_in_parent(self):
        """Golden Runs are computed in the parent and stay inspectable."""
        campaign = make_campaign()
        campaign.execute_parallel(max_workers=2)
        assert set(campaign.golden_runs()) == {"c0", "c1", "c2"}
        for golden in campaign.golden_runs().values():
            assert golden.duration_ms == 30


def failing_factory(case):
    """Picklable run factory whose Golden Run set-up fails for ``"bad"``."""
    if case == "bad":
        raise RuntimeError("factory failed for case 'bad'")
    return toy_factory(case)


@pytest.mark.parametrize("adaptive", [False, True], ids=["exhaustive", "adaptive"])
def test_failed_setup_unlinks_every_shared_memory_segment(monkeypatch, adaptive):
    """A Golden Run failing mid set-up must not leak earlier segments."""
    from multiprocessing import shared_memory

    real = shared_memory.SharedMemory
    created: list[str] = []

    class SpySharedMemory(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("create"):
                created.append(self.name)

    monkeypatch.setattr(shared_memory, "SharedMemory", SpySharedMemory)
    config = CampaignConfig(
        duration_ms=30,
        injection_times_ms=(5, 15),
        error_models=(BitFlip(15), BitFlip(3)),
        adaptive=adaptive,
    )
    campaign = InjectionCampaign(
        build_toy_model(), failing_factory, {"ok": "ok", "bad": "bad"}, config
    )
    with pytest.raises(RuntimeError, match="factory failed"):
        campaign.execute_parallel(max_workers=1)
    assert created, "the first case's Golden Run should have been shared"
    leaked = []
    for name in created:
        try:
            segment = real(name=name)
        except FileNotFoundError:
            continue
        leaked.append(name)
        segment.close()
        segment.unlink()
    assert leaked == []
