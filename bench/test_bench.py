"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (pytest puts bench/ on sys.path)
import workloads  # noqa: E402

SPEC = run.load_spec()


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One --quick --trace run of all four workloads: (stdout, result)."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--quick",
         "--trace", "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    with open(out, encoding="utf-8") as fh:
        return done.stdout, json.load(fh)


def test_quick_prints_every_metric_with_its_unit(quick):
    stdout, result = quick
    sections = re.split(r"^== ", stdout, flags=re.M)[1:]
    assert [s.split(":")[0] for s in sections] == list(workloads.NAMES)
    for section in sections:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            pattern = (rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                       rf"{re.escape(metric['unit'])}(\s|$)")
            assert re.search(pattern, section, flags=re.M), (
                section.split(":")[0], metric["name"])
    for name, workload in result["workloads"].items():
        assert workload["correct"], (name, workload["errors"])
        assert workload["attempted"] >= 1
    provenance = result["provenance"]
    for key in ("nproc", "python", "numpy", "git_rev", "seed"):
        assert key in provenance


def test_span_trees_are_well_formed(quick):
    _, result = quick
    for name, workload in result["workloads"].items():
        spans = {s["id"]: s for s in workload["spans"]}
        for span in spans.values():
            assert span["workload"] == name
            assert span["start"] <= span["end"]
            assert span["busy"] <= span["end"] - span["start"] + 1e-9
            assert span["self"] >= -1e-9, span
            parent = spans.get(span["parent"])
            if parent is not None:
                assert parent["start"] <= span["start"] + 1e-9, span
                assert span["end"] <= parent["end"] + 1e-9, span
        round_ = next(s for s in spans.values()
                      if s["name"] == "harness.round")
        stages = [s for s in spans.values()
                  if spans.get(s["parent"], {}).get("name")
                  in ("harness.setup", "harness.work")]
        assert stages
        assert sum(s["busy"] for s in stages) <= round_["busy"]


def test_oracle_catches_a_tampered_simstats():
    load = workloads.ReplayWorkload("tamper", "wisc-prof", 0.05,
                                    workloads.CGP_CELLS[:2], seed=3)
    load.round()
    assert load.oracle()["failed"] == 0
    stats = load.outputs[0][workloads.cell_label(load.specs[0])]["stats"]
    stats["demand_misses"] += 1
    check = load.oracle()
    assert check["failed"] == 1
    assert "differs from the reference engine" in check["errors"][0]


def _scaled(result, factor):
    """``result`` with every end-to-end sample made ``factor`` worse."""
    out = copy.deepcopy(result)
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    for workload in out["workloads"].values():
        for name, metric in workload["end_to_end"].items():
            f = factor if better[name] == "lower" else 1 / factor
            value = metric["value"] * f
            metric.update(run.summary([x * f for x in metric["samples"]],
                                      metric["unit"]), value=value)
    return out


def test_compare_passes_self_and_flags_a_20pct_slowdown(quick, tmp_path):
    _, result = quick
    base = tmp_path / "base.json"
    base.write_text(json.dumps(result))
    assert run.main(["--compare", str(base), str(base)]) == 0

    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(_scaled(result, 1.2)))
    assert run.main(["--compare", str(base), str(slow)]) == 1

    failing = copy.deepcopy(result)
    failing["workloads"]["serve-oltp"]["fail_frac"] = 0.01
    failed = tmp_path / "failed.json"
    failed.write_text(json.dumps(failing))
    assert run.main(["--compare", str(base), str(failed)]) == 1


def test_judge_leaves_a_wide_spread_unresolved():
    def entry(samples):
        return run.summary(samples, "s")

    base = entry([1.0, 1.2, 1.4, 1.6, 1.8])
    wider = entry([x * 1.15 for x in base["samples"]])
    assert run.judge(base, wider, "lower", 0.1)[0] == "unresolved"
    assert run.judge(base, entry([0.5] * 5), "lower", 0.1)[0] == "better"
    assert run.judge(entry([1.0] * 3), entry([1.05] * 3), "lower",
                     0.1)[0] == "same"
    assert run.judge(entry([100.0] * 3), entry([80.0] * 3), "higher",
                     0.1)[0] == "worse"


def test_fails_without_a_source_tree(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the
    benchmark exits non-zero and prints no result."""
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  "results"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cgp-wisc", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
