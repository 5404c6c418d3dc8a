"""The crash sweep, ``scripts/torture.py``: journal, failing plan, replay."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.db.storage.faults import SCHEDULES, derive_plan
from repro.db.storage.torture import InvariantViolation, run_torture
from repro.errors import StorageError

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "torture.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("crash_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_seed_sweep_journals_every_harness_run(sweep, tmp_path):
    journal = tmp_path / "journal.jsonl"
    plan_file = tmp_path / "failing_plan.json"
    plan_file.write_text("stale")  # from an earlier sweep
    assert sweep.main(["--seeds", "1", "--journal", str(journal),
                       "--failing-plan", str(plan_file)]) == 0
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    assert sorted((r["harness"], r["index_kind"], r["schedule"])
                  for r in records) == sorted(
        (harness, index_kind, schedule)
        for harness, index_kind in sweep.RUNS for schedule in SCHEDULES)
    assert {(r["status"], r["seed"]) for r in records} == {("PASS", 0)}
    assert not plan_file.exists()


def test_failing_plan_names_the_first_failure(sweep, tmp_path, monkeypatch):
    def violate(seed, schedule):
        raise InvariantViolation(f"planted failure at {schedule}")

    monkeypatch.setattr(sweep, "RUNS", {("torture", "hash"): violate,
                                        ("chaos", "btree"): violate})
    journal = tmp_path / "journal.jsonl"
    plan_file = tmp_path / "failing_plan.json"
    assert sweep.main(["--seeds", "2", "--journal", str(journal),
                       "--failing-plan", str(plan_file)]) == 1
    assert len(journal.read_text().splitlines()) == 2 * 2 * len(SCHEDULES)
    written = json.loads(plan_file.read_text())
    assert (written["harness"], written["index_kind"]) == ("torture", "hash")
    assert written["plan"] == derive_plan(0, SCHEDULES[0]).to_dict()


def test_replay_reruns_on_the_plans_index_kind(sweep, tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({
        "harness": "torture", "index_kind": "hash",
        "plan": derive_plan(3, "mixed").to_dict()}))
    replayed = sweep.replay(str(plan_file)).to_dict()
    assert replayed == run_torture(3, "mixed", index_kind="hash").to_dict()
    assert replayed != run_torture(3, "mixed").to_dict()


def test_replay_refuses_an_edited_plan(sweep, tmp_path):
    plan = derive_plan(3, "mixed").to_dict()
    point, hit, action, param = plan["triggers"][-1]
    plan["triggers"][-1] = [point, hit + 1, action, param]
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(
        {"harness": "torture", "index_kind": "btree", "plan": plan}))
    with pytest.raises(StorageError, match="would not replay"):
        sweep.replay(str(plan_file))
