"""Experiment runner: caching, prefetcher construction, artifacts."""

import pytest

from repro.errors import ConfigError
from repro.harness.runner import ExperimentRunner, PipelineConfig, _make_prefetcher
from repro.core import CgpPrefetcher
from repro.instrument.expand import ExpansionConfig
from repro.uarch.prefetch import NextNLinePrefetcher, RunAheadNLPrefetcher


def test_artifacts_cached(small_runner):
    a = small_runner.artifacts("wisc-prof")
    b = small_runner.artifacts("wisc-prof")
    assert a is b


def test_artifacts_have_both_layouts(prof_artifacts):
    assert prof_artifacts.layout("O5").name == "O5"
    assert prof_artifacts.layout("OM").name == "O5+OM"
    with pytest.raises(ConfigError):
        prof_artifacts.layout("O3")


def test_artifacts_trace_is_nonempty(prof_artifacts):
    assert len(prof_artifacts.trace) > 1000
    assert prof_artifacts.trace.call_count() > 100
    assert prof_artifacts.query_rows  # the queries produced results


def test_unknown_workload_rejected(small_runner):
    with pytest.raises(ConfigError):
        small_runner.artifacts("tpc-c")


def test_run_results_cached(small_runner):
    a = small_runner.run("wisc-prof", "OM", None)
    b = small_runner.run("wisc-prof", "OM", None)
    assert a is b
    small_runner.clear_results()
    c = small_runner.run("wisc-prof", "OM", None)
    assert c is not a
    assert c.cycles == a.cycles  # deterministic rebuild


def test_perfect_flag_changes_result(small_runner):
    normal = small_runner.run("wisc-prof", "OM", None)
    perfect = small_runner.run("wisc-prof", "OM", None, perfect=True)
    assert perfect.cycles < normal.cycles
    assert perfect.demand_misses == 0


def test_make_prefetcher_variants(prof_artifacts):
    layout = prof_artifacts.layout("OM")
    assert _make_prefetcher(None, layout, "CGHC-2K+32K") is None
    assert isinstance(
        _make_prefetcher(("nl", 4), layout, "CGHC-2K+32K"), NextNLinePrefetcher
    )
    assert isinstance(
        _make_prefetcher(("ra-nl", 4, 4), layout, "CGHC-2K+32K"),
        RunAheadNLPrefetcher,
    )
    cgp = _make_prefetcher(("cgp", 2), layout, "CGHC-1K")
    assert isinstance(cgp, CgpPrefetcher)
    assert cgp.lines_per_prefetch == 2
    with pytest.raises(ConfigError):
        _make_prefetcher(("markov", 2), layout, "CGHC-1K")


def test_disk_cache_roundtrip(tmp_path):
    runner = ExperimentRunner(
        pipeline=PipelineConfig(),
        scales={"wisc-prof": 0.15},
        cache_dir=str(tmp_path),
    )
    first = runner.artifacts("wisc-prof")
    assert list(tmp_path.iterdir())  # something persisted
    fresh = ExperimentRunner(
        pipeline=PipelineConfig(),
        scales={"wisc-prof": 0.15},
        cache_dir=str(tmp_path),
    )
    reloaded = fresh.artifacts("wisc-prof")
    assert len(reloaded.trace) == len(first.trace)
    assert reloaded.image.function_count == first.image.function_count


def test_pipeline_key_distinguishes_parameters():
    a = PipelineConfig(scale=0.1).key("wisc-prof")
    b = PipelineConfig(scale=0.2).key("wisc-prof")
    c = PipelineConfig(scale=0.1, quantum_rows=4).key("wisc-prof")
    d = PipelineConfig(
        scale=0.1, expansion=ExpansionConfig(helper_max_instrs=24)
    ).key("wisc-prof")
    assert len({a, b, c, d}) == 4


def test_shared_cache_dir_keeps_expansion_variants_apart(tmp_path):
    """Two pipelines that differ only in the runtime library's helper
    sizes must not load each other's cached trace."""
    scales = {"wisc-prof": 0.05}
    variant = PipelineConfig(expansion=ExpansionConfig(helper_max_instrs=24))
    default = ExperimentRunner(scales=scales, cache_dir=str(tmp_path))
    shared = ExperimentRunner(pipeline=variant, scales=scales,
                              cache_dir=str(tmp_path))
    fresh = ExperimentRunner(pipeline=variant, scales=scales)
    default_trace = default.artifacts("wisc-prof").trace
    shared_trace = shared.artifacts("wisc-prof").trace
    fresh_trace = fresh.artifacts("wisc-prof").trace
    assert (shared_trace.total_instructions()
            != default_trace.total_instructions())
    for field in ("kinds", "a", "b", "c"):
        assert getattr(shared_trace, field) == getattr(fresh_trace, field)
