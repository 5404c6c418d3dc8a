"""Multiprogrammed mix machinery."""

from types import SimpleNamespace

from repro.harness import ExperimentRunner, multiprog
from repro.harness.multiprog import (
    combine_images,
    database_mix,
    merge_with_background,
    multiprogram_mix,
    shift_fids,
)
from repro.instrument.codeimage import CodeImage
from repro.instrument.trace import CALL, EXEC, RET, SWITCH, Trace
from repro.layout import om_layout, profile_of
from repro.uarch import TABLE_1, simulate
from repro.workloads import cpu2000


def small_image(n=3, size=64):
    image = CodeImage()
    for i in range(n):
        image.register_synthetic(f"f{i}", size)
    return image


def test_combine_images_concatenates():
    a = small_image(3)
    b = small_image(2)
    combined, offset = combine_images(a, b)
    assert offset == 3
    assert combined.function_count == 5
    assert combined.name_of(3).startswith("p1::")
    assert combined.info(4).size_instrs == b.info(1).size_instrs


def test_shift_fids_moves_only_function_ids():
    trace = Trace()
    trace.add_exec(1, 5, 20)
    trace.add_call(2, 1, 20)
    trace.add_return(2, 1, 10)
    trace.add_call(0, -1, 0)  # unknown caller stays -1
    shifted = shift_fids(trace, 100)
    events = list(shifted.events())
    assert events[0] == (EXEC, 101, 5, 20)  # offsets untouched
    assert events[1] == (CALL, 102, 101, 20)
    assert events[2] == (RET, 102, 101, 10)
    assert events[3] == (CALL, 100, -1, 0)


def test_mix_increases_miss_rate():
    result = multiprogram_mix("gcc", "crafty", target_instructions=300_000)
    solo_a = result.row("gcc solo")["misses"]
    solo_b = result.row("crafty solo")["misses"]
    shared = result.row("time-shared")["misses"]
    assert shared > solo_a + solo_b  # interference, not just addition
    assert result.row("time-shared")["miss_rate"] > result.row("gcc solo")["miss_rate"]


def test_mix_with_small_quantum_is_worse():
    coarse = multiprogram_mix("gcc", "crafty", quantum=50000,
                              target_instructions=300_000)
    fine = multiprogram_mix("gcc", "crafty", quantum=5000,
                            target_instructions=300_000)
    assert (
        fine.row("time-shared")["misses"]
        >= coarse.row("time-shared")["misses"]
    )


def per_event_database_mix_rows(runner, suite, benchmark,
                                target_instructions):
    """``database_mix``'s rows the per-event way: every run lays out
    from a fresh ``profile_of`` of its own trace, and the DB thread ids
    come from a walk over the events."""
    art = runner.artifacts(suite)
    bench_image, bench_trace = cpu2000.build_benchmark(
        benchmark, target_instructions=target_instructions)
    combined_image, offset = combine_images(art.image, bench_image)
    db_tids = {a for kind, a, _b, _c in art.trace.events() if kind == SWITCH}
    mixed = merge_with_background(art.trace, shift_fids(bench_trace, offset),
                                  max(db_tids, default=0) + 1)
    rows = []
    for image, trace in ((art.image, art.trace), (bench_image, bench_trace),
                         (combined_image, mixed)):
        layout = om_layout(image, profile_of(trace), instr_scale=1.0)
        stats = simulate(trace, layout, TABLE_1)
        rows.append({"misses": stats.demand_misses,
                     "miss_rate": stats.miss_rate, "mpki": stats.mpki})
    return rows


def test_database_mix_lays_out_the_db_run_from_the_artifacts_profile(
        small_runner, monkeypatch):
    db_trace = small_runner.artifacts("wisc-prof").trace
    expected = per_event_database_mix_rows(small_runner, "wisc-prof", "gcc",
                                           200_000)
    profiled = []

    def spy(*traces):
        profiled.extend(traces)
        return profile_of(*traces)

    monkeypatch.setattr(multiprog, "profile_of", spy)
    result = database_mix(small_runner, suite="wisc-prof", benchmark="gcc",
                          target_instructions=200_000)
    assert [row for _label, row in result.rows] == expected
    assert len(profiled) == 2
    assert all(trace is not db_trace for trace in profiled)


def test_database_mix_background_thread_clears_the_db_threads(
        prof_artifacts, monkeypatch):
    trace = Trace()
    for tid in (3, 9, 4):
        trace.add_switch(tid)
        trace.extend(prof_artifacts.trace)
    runner = SimpleNamespace(
        artifacts=lambda _suite: SimpleNamespace(
            image=prof_artifacts.image, trace=trace,
            profile=profile_of(trace)),
        run_tasks=ExperimentRunner(max_workers=1).run_tasks)
    tids = []

    def spy(db_trace, bg_trace, bg_tid, **kwargs):
        tids.append(bg_tid)
        return merge_with_background(db_trace, bg_trace, bg_tid, **kwargs)

    monkeypatch.setattr(multiprog, "merge_with_background", spy)
    database_mix(runner, suite="wisc-prof", benchmark="gcc",
                 target_instructions=100_000)
    assert tids == [10]
