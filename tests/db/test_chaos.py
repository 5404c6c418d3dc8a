"""Chaos-under-load: invariants, determinism, and replayability."""

import pytest

from repro.db.chaos import ChaosReport, run_chaos
from repro.db.storage.faults import SCHEDULES, derive_plan

RETRYABLE = {"ServerBusy", "DeadlineExceeded", "ConnectionLost",
             "TransactionAborted"}


def test_quiesce_scenario_serves_traffic_without_faults():
    report = run_chaos(0, "quiesce")
    assert not report.crashed
    assert report.acked > 0
    assert report.rows > 0
    assert set(report.client_errors) <= RETRYABLE


def test_crash_scenario_recovers_and_resumes():
    report = run_chaos(1, "mixed")
    assert report.crashed
    assert report.fired  # the planned fault actually hit
    assert report.resumed_commits > 0  # service resumed after recovery
    assert set(report.client_errors) <= RETRYABLE


def test_scenarios_replay_bit_identically():
    first = run_chaos(1, "mixed")
    second = run_chaos(1, "mixed")
    assert first.to_dict() == second.to_dict()
    assert first.fingerprint == second.fingerprint


def test_every_schedule_passes_one_seed():
    for schedule in SCHEDULES:
        report = run_chaos(3, schedule)
        assert isinstance(report, ChaosReport), schedule
        assert set(report.client_errors) <= RETRYABLE, schedule


def test_intensity_scales_hit_indexes_only():
    base = derive_plan(5, "append-crash", intensity=1.0)
    hot = derive_plan(5, "append-crash", intensity=3.0)
    assert base.seed == hot.seed and base.schedule == hot.schedule
    # same trigger points and actions; only how-far-in can differ
    assert [t.point for t in base.triggers] == [t.point for t in hot.triggers]


def test_intensity_identity_preserves_historical_plans():
    assert (derive_plan(11, "mixed").to_json()
            == derive_plan(11, "mixed", intensity=1.0).to_json())


def test_invalid_intensity_rejected():
    with pytest.raises(Exception):
        derive_plan(0, "mixed", intensity=0)


def test_report_shape_is_journal_ready():
    report = run_chaos(2, "commit-unforced")
    record = report.to_dict()
    for key in ("seed", "schedule", "crashed", "acked", "client_errors",
                "shed", "server_retries", "client_restarts",
                "resumed_commits", "rows", "fingerprint"):
        assert key in record, key
