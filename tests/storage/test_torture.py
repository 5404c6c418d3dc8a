"""The crash-consistency torture harness itself."""

import pytest

from repro.db.storage import torture
from repro.db.storage.faults import SCHEDULES, derive_plan

# a small but representative scenario mix for the unit suite; the full
# sweep (B+-tree and hash torture plus chaos, every schedule) runs via
# scripts/torture.py and the CI crash-sweep job
SMOKE = [(seed, schedule) for schedule in SCHEDULES for seed in (0, 1)]


@pytest.mark.parametrize("seed,schedule", SMOKE,
                         ids=[f"{s}-{i}" for i, s in SMOKE])
def test_smoke_scenarios_pass_invariants(seed, schedule):
    report = torture.run_torture(seed, schedule)
    assert report.rows >= 0
    assert report.schedule == schedule


def test_same_scenario_is_byte_identical():
    a = torture.run_torture(4, "mixed")
    b = torture.run_torture(4, "mixed")
    assert a.fingerprint == b.fingerprint
    assert a.to_dict() == b.to_dict()


def test_quiesce_scenario_completes_the_workload():
    report = torture.run_torture(0, "quiesce")
    assert not report.crashed
    assert report.acked > 0
    assert report.rows > 0


def test_crash_schedules_actually_crash():
    crashed = sum(
        torture.run_torture(seed, "commit-unforced").crashed
        for seed in range(5)
    )
    assert crashed == 5


def test_report_is_json_ready():
    import json

    report = torture.run_torture(2, "flush-partial")
    text = json.dumps(report.to_dict())
    assert "flush-partial" in text


def test_build_crashed_state_preserves_the_log_horizon():
    state = torture.build_crashed_state(1, "append-crash")
    # nothing past the forced horizon survives except the planned tail
    horizon = state.sm.log.flushed_lsn + 1
    assert len(state.survived) == horizon + min(
        state.plan.torn_tail,
        len(state.sm.log.records()) - horizon,
    )


def test_torn_tail_schedule_leaves_a_corrupt_record():
    found = 0
    for seed in range(8):
        state = torture.build_crashed_state(seed, "torn-tail")
        kinds = [r.kind for r in state.survived]
        found += "#TORN#" in kinds
    assert found > 0  # the schedule exists to exercise durable_prefix


def test_resurrection_is_possible():
    # commit-done crashes after the log force but before the commit call
    # returns: the transaction is durable yet never acknowledged, so
    # recovery legitimately resurrects it
    seen = 0
    for seed in range(10):
        seen += torture.run_torture(seed, "commit-done").resurrected
    assert seen > 0


def test_unforced_commits_are_never_acked_winners():
    # commit-unforced crashes before the force: the COMMIT record is not
    # durable, so the transaction must not be acknowledged OR a winner
    for seed in range(5):
        report = torture.run_torture(seed, "commit-unforced")
        assert report.resurrected == 0


def test_plans_replay_from_error_text():
    # the invariant-failure contract: a plan embedded in an error message
    # reconstructs the exact scenario
    plan = derive_plan(6, "writeback-crash")
    from repro.db.storage.faults import FaultPlan

    assert FaultPlan.from_json(plan.to_json()) == plan
