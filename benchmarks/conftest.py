"""Shared benchmark fixtures.

One :class:`ExperimentRunner` is shared by every benchmark so traces are
built once and simulation results are reused across figures (fig4, fig6,
and fig7 share most configurations).  Workload scales come from
``repro.harness.runner.DEFAULT_SCALES`` — large enough for stable shape,
small enough that the whole benchmark suite regenerates in minutes.

Override scales with ``REPRO_BENCH_SCALE`` (a multiplier) to run closer
to paper scale, e.g. ``REPRO_BENCH_SCALE=4 pytest benchmarks/``.

The runner fans each simulation grid out over the CPUs this process
may run on.  Engine knobs (all optional):

* ``REPRO_BENCH_CACHE=dir`` — durable artifact + result cache, so
  re-running a figure after an interrupted suite is nearly free.
* ``REPRO_JOURNAL=path`` — append a JSONL run journal (telemetry).
* ``REPRO_PROGRESS=1`` — live per-cell progress lines on stderr.
"""

from __future__ import annotations

import os

import pytest

from repro.harness import (
    DEFAULT_SCALES,
    ExperimentRunner,
    PipelineConfig,
    progress_printer,
)


def _scales():
    factor = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return {name: scale * factor for name, scale in DEFAULT_SCALES.items()}


@pytest.fixture(scope="session")
def runner():
    return ExperimentRunner(
        pipeline=PipelineConfig(),
        scales=_scales(),
        cache_dir=os.environ.get("REPRO_BENCH_CACHE"),
        journal=os.environ.get("REPRO_JOURNAL"),
        progress=progress_printer() if os.environ.get("REPRO_PROGRESS")
        else None,
    )


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
