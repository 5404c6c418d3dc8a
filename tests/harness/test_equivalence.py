"""Serial/parallel equivalence: every figure driver must produce
byte-identical ExperimentResult rows whether its grid runs in-process on
an ExperimentRunner(max_workers=1) or on forked workers of a
ParallelRunner(max_workers=4).

Stats cross the process boundary pickled, and the durable JSON cache
via SimStats.to_dict()/from_dict(), so these tests also pin that both
round-trips are lossless (floats survive exactly).
"""

import pytest

from repro.harness import (
    ExperimentRunner,
    ParallelRunner,
    PipelineConfig,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    runahead_ablation,
    scale_sensitivity,
)

WORKLOADS = ["wisc-prof"]
SCALES = {"wisc-prof": 0.06, "wisc-large-2": 0.006}


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    """A serial and a parallel engine sharing the artifact cache but
    with *separate* result caches, so the parallel path genuinely
    recomputes every cell in worker processes."""
    base = tmp_path_factory.mktemp("equiv")
    art = str(base / "artifacts")
    common = dict(pipeline=PipelineConfig(quantum_rows=2), scales=SCALES,
                  cache_dir=art)
    serial = ExperimentRunner(results_dir=str(base / "serial"),
                              max_workers=1, **common)
    parallel = ParallelRunner(results_dir=str(base / "parallel"),
                              max_workers=4, **common)
    return serial, parallel


DRIVERS = [fig4, fig5, fig6, fig7, fig8, fig9, runahead_ablation]


@pytest.mark.parametrize("driver", DRIVERS,
                         ids=[d.__name__ for d in DRIVERS])
def test_driver_rows_identical_serial_vs_parallel(engines, driver):
    serial, parallel = engines
    a = driver(serial, workloads=WORKLOADS)
    b = driver(parallel, workloads=WORKLOADS)
    assert a.failures == [] and b.failures == []
    assert a.rows == b.rows  # byte-identical values, same order


def test_fig10_rows_identical_serial_vs_parallel(engines):
    serial, parallel = engines
    a = fig10(target_instructions=100_000, engine=serial)
    b = fig10(target_instructions=100_000, engine=parallel)
    assert a.failures == [] and b.failures == []
    assert a.rows == b.rows


def test_scale_sensitivity_identical(engines, tmp_path_factory):
    serial, parallel = engines
    base = tmp_path_factory.mktemp("scale")
    large_scales = {"wisc-large-2": 0.012}
    serial_large = ExperimentRunner(
        pipeline=PipelineConfig(quantum_rows=2), scales=large_scales,
        cache_dir=str(base / "art"), max_workers=1)
    parallel_large = ParallelRunner(
        pipeline=PipelineConfig(quantum_rows=2), scales=large_scales,
        cache_dir=str(base / "art"), results_dir=str(base / "rp"),
        max_workers=4)
    a = scale_sensitivity(serial, serial_large)
    b = scale_sensitivity(parallel, parallel_large)
    assert a.rows == b.rows


def test_parallel_results_survive_durable_roundtrip(engines):
    """Re-reading the parallel engine's own durable cache reproduces the
    in-memory stats bit for bit."""
    _serial, parallel = engines
    from repro.harness import RunSpec

    spec = RunSpec("wisc-prof", "OM", ("cgp", 4))
    stats = parallel.run_spec(spec)
    key = parallel.fingerprint(spec)
    reloaded = parallel.result_cache.get(key)
    assert reloaded.to_dict() == stats.to_dict()
    assert reloaded.cycles == stats.cycles
