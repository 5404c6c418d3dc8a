"""Multiprogrammed CPU2000 mixes (context-switch interference).

§2 of the paper notes that database code "suffer[s] from frequent
context switches, causing significant increases in the instruction
cache miss rates".  This experiment makes the same effect visible on
the CPU2000 side: two benchmarks time-share one core via
:func:`repro.instrument.interleave.interleave`, and the combined miss
rate exceeds the sum of the solo runs because each quantum evicts the
other program's code.

The two programs' code images are concatenated into one address space
(two processes resident in one physically-indexed cache).
"""

from __future__ import annotations

from functools import partial

import numpy as _np

from repro.errors import TraceError
from repro.harness.experiments import ExperimentResult
from repro.instrument.codeimage import FrozenImage
from repro.instrument.interleave import interleave
from repro.instrument.trace import EXEC, SWITCH, Trace
from repro.layout import om_layout, profile_of
from repro.uarch import TABLE_1, simulate
from repro.workloads import cpu2000


def combine_images(image_a, image_b):
    """Concatenate two code images; returns (image, fid offset of b)."""
    names = [info.name for info in image_a.functions()]
    sizes = [info.size_instrs for info in image_a.functions()]
    offset = len(names)
    names += [f"p1::{info.name}" for info in image_b.functions()]
    sizes += [info.size_instrs for info in image_b.functions()]
    return FrozenImage(names, sizes), offset


def shift_fids(trace, offset):
    """Re-home a trace's function ids into the combined image.

    EXEC events carry (fid, from-offset, to-offset): only the fid moves.
    CALL/RET events carry (fid, caller fid, offset): both fids move.
    """
    out = Trace()
    for kind, a, b, c in trace.events():
        if kind == SWITCH:
            out.add_switch(a)
            continue
        out.kinds.append(kind)
        out.a.append(a + offset)
        if kind == EXEC:
            out.b.append(b)
        else:
            out.b.append(b + offset if b >= 0 else b)
        out.c.append(c)
    return out


def multiprogram_mix(name_a, name_b, quantum=20000,
                     target_instructions=1_000_000, sim_config=TABLE_1):
    """Run name_a and name_b solo and time-shared; returns an
    :class:`ExperimentResult` with miss rates for all three runs."""
    image_a, trace_a = cpu2000.build_benchmark(
        name_a, target_instructions=target_instructions
    )
    image_b, trace_b = cpu2000.build_benchmark(
        name_b, target_instructions=target_instructions
    )
    combined_image, offset = combine_images(image_a, image_b)
    mixed = interleave([trace_a, shift_fids(trace_b, offset)], quantum=quantum)

    result = ExperimentResult(
        "multiprog",
        f"Multiprogrammed mix: {name_a} + {name_b} (quantum {quantum})",
        "Context switches between programs sharing an I-cache increase "
        "miss rates beyond the solo runs (§2).",
        ["misses", "miss_rate", "mpki"],
    )

    def run(image, trace, label):
        layout = om_layout(image, profile_of(trace), instr_scale=1.0)
        stats = simulate(trace, layout, sim_config)
        result.add_row(label, {
            "misses": stats.demand_misses,
            "miss_rate": stats.miss_rate,
            "mpki": stats.mpki,
        })
        return stats

    run(image_a, trace_a, f"{name_a} solo")
    run(image_b, trace_b, f"{name_b} solo")
    run(combined_image, mixed, "time-shared")
    return result


def merge_with_background(db_trace, bg_trace, bg_tid, quantum=20000,
                          call_overhead=2):
    """Time-share a DBMS trace with a background program's trace.

    The DBMS tracer emits no SWITCH events (the cooperative scheduler
    interleaves queries inside one trace without markers), but a DB
    trace may still carry some — one merged by :func:`interleave`, say
    — and :func:`interleave` refuses such input.  This merge
    round-robins quantum-sized bursts instead: DB bursts are copied
    verbatim, any internal switches included, and each one is preceded
    by a SWITCH back to whichever DB thread was running when the
    previous burst was cut (thread 0 until a DB switch names another);
    background bursts run as thread ``bg_tid``, which must not collide
    with any DB thread id.
    """
    merged = Trace()
    cursors = [0, 0]
    db_tid = 0  # the DB thread to resume; traces open with SWITCH 0
    sources = [db_trace, bg_trace]
    while any(cursors[i] < len(sources[i]) for i in (0, 1)):
        for which in (0, 1):
            trace = sources[which]
            index = cursors[which]
            if index >= len(trace):
                continue
            merged.add_switch(db_tid if which == 0 else bg_tid)
            budget = quantum
            kinds, a, b, c = trace.kinds, trace.a, trace.b, trace.c
            while index < len(kinds) and budget > 0:
                kind = kinds[index]
                if kind == SWITCH:
                    if which == 1:
                        raise TraceError(
                            "background trace must not contain SWITCH"
                        )
                    db_tid = a[index]
                merged.kinds.append(kind)
                merged.a.append(a[index])
                merged.b.append(b[index])
                merged.c.append(c[index])
                if kind == EXEC:
                    budget -= abs(c[index] - b[index]) + 1
                elif kind != SWITCH:
                    budget -= call_overhead
                index += 1
            cursors[which] = index
    return merged


def database_mix(runner, suite="serving", benchmark="gcc", quantum=20000,
                 target_instructions=1_000_000, sim_config=TABLE_1):
    """Time-share a traced database workload with a CPU2000 program.

    The paper's §2 interference argument, with the DBMS itself in the
    mix: the multi-tenant ``serving`` trace (or any suite) shares one
    I-cache with a compute benchmark, and the combined miss rate
    exceeds both solo runs.  The three replays, both solo runs and the
    time-shared one, are one ``runner.run_tasks`` grid; a failed
    replay's row is missing and its failure is in ``result.failures``.
    """
    art = runner.artifacts(suite)
    db_image, db_trace = art.image, art.trace
    bench_image, bench_trace = cpu2000.build_benchmark(
        benchmark, target_instructions=target_instructions
    )
    combined_image, offset = combine_images(db_image, bench_image)
    n = len(db_trace)
    switches = (
        _np.frombuffer(db_trace.kinds, dtype=_np.int8, count=n) == SWITCH)
    db_tids = _np.frombuffer(db_trace.a, dtype=_np.int64, count=n)[switches]
    bg_tid = int(db_tids.max()) + 1 if db_tids.size else 1
    mixed = merge_with_background(
        db_trace, shift_fids(bench_trace, offset), bg_tid, quantum=quantum
    )

    result = ExperimentResult(
        "database-mix",
        f"Database mix: {suite} + {benchmark} (quantum {quantum})",
        "A database serving workload time-shared with a compute "
        "program loses instruction locality at every context switch "
        "(§2) — on top of the query interleaving it already suffers.",
        ["misses", "miss_rate", "mpki"],
    )

    def run(image, trace, profile):
        layout = om_layout(image, profile, instr_scale=1.0)
        stats = simulate(trace, layout, sim_config)
        return {
            "misses": stats.demand_misses,
            "miss_rate": stats.miss_rate,
            "mpki": stats.mpki,
        }

    # the runner built the DB trace's profile with its artifacts
    tasks = [
        (f"{suite} solo", partial(run, db_image, db_trace, art.profile)),
        (f"{benchmark} solo",
         partial(run, bench_image, bench_trace, profile_of(bench_trace))),
        ("time-shared",
         partial(run, combined_image, mixed, profile_of(mixed))),
    ]
    grid = runner.run_tasks(tasks, grid="database-mix")
    for label, _task in tasks:
        if label in grid:
            result.add_row(label, grid[label])
    result.failures = grid.failure_report()
    return result
