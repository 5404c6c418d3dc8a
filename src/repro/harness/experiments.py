"""One driver per paper artifact (figures 4-10, §3.2/§5.4 statistics).

Every driver returns an :class:`ExperimentResult` whose rows carry the
same series the paper's figure plots, plus the paper's headline claim so
reports can show paper-vs-measured side by side.

Drivers submit their full (workload x configuration) grid through the
experiment engine (``runner.run_grid`` / ``runner.run_tasks``) instead
of simulating cell by cell, so the same driver code runs serially on a
plain :class:`~repro.harness.runner.ExperimentRunner` and fanned out
over processes on a :class:`~repro.harness.parallel.ParallelRunner`.
Failed cells never abort a figure: their rows carry whatever values
survived and the failures land in ``ExperimentResult.failures``.
"""

from __future__ import annotations

import functools

from dataclasses import dataclass, field, replace

from repro.harness.grid import RunSpec
from repro.harness.runner import ExperimentRunner, _make_prefetcher
from repro.layout import om_layout, profile_of
from repro.uarch import TABLE_1, simulate
from repro.workloads import cpu2000
from repro.workloads.suites import SUITE_NAMES

DB_WORKLOADS = SUITE_NAMES


@dataclass
class ExperimentResult:
    exp_id: str
    title: str
    paper_claim: str
    columns: list
    rows: list = field(default_factory=list)  # (label, {column: value})
    notes: str = ""
    failures: list = field(default_factory=list)  # failed grid cells

    def add_row(self, label, values):
        self.rows.append((label, values))

    def row(self, label):
        for row_label, values in self.rows:
            if row_label == label:
                return values
        raise KeyError(label)

    def geomean(self, column):
        """Geometric mean of one column across rows (speedup summaries)."""
        values = [v[column] for _l, v in self.rows if v.get(column)]
        if not values:
            return 0.0
        product = 1.0
        for value in values:
            product *= value
        return product ** (1.0 / len(values))


# ----------------------------------------------------------------------
# Figure 4: O5 / OM / CGP_2 / CGP_4 execution cycles
# ----------------------------------------------------------------------

FIG4_CONFIGS = [
    ("O5", "O5", None),
    ("O5+OM", "OM", None),
    ("O5+CGP_2", "O5", ("cgp", 2)),
    ("O5+CGP_4", "O5", ("cgp", 4)),
    ("O5+OM+CGP_2", "OM", ("cgp", 2)),
    ("O5+OM+CGP_4", "OM", ("cgp", 4)),
]


def fig4(runner, workloads=DB_WORKLOADS):
    result = ExperimentResult(
        "fig4",
        "Performance comparison of O5, OM and CGP (execution cycles)",
        "OM gives ~11% speedup over O5; CGP_4 alone ~40%; OM+CGP_4 ~45% "
        "over O5 and ~30% over OM; CGP alone outperforms OM alone.",
        [name for name, _l, _p in FIG4_CONFIGS]
        + [f"speedup:{name}" for name, _l, _p in FIG4_CONFIGS[1:]],
    )
    grid = runner.run_grid(
        [RunSpec(workload, layout_name, spec)
         for workload in workloads
         for _name, layout_name, spec in FIG4_CONFIGS],
        grid="fig4",
    )
    for workload in workloads:
        values = {}
        for name, layout_name, spec in FIG4_CONFIGS:
            stats = grid.get(RunSpec(workload, layout_name, spec))
            if stats is not None:
                values[name] = stats.cycles
        base = values.get("O5")
        for name, _layout, _spec in FIG4_CONFIGS[1:]:
            if base and name in values:
                values[f"speedup:{name}"] = base / values[name]
        result.add_row(workload, values)
    result.failures = grid.failure_report()
    return result


# ----------------------------------------------------------------------
# Figure 5: CGHC design space
# ----------------------------------------------------------------------

FIG5_VARIANTS = ["CGHC-1K", "CGHC-32K", "CGHC-1K+16K", "CGHC-2K+32K", "CGHC-Inf"]


def fig5(runner, workloads=DB_WORKLOADS):
    result = ExperimentResult(
        "fig5",
        "Performance of five CGHC configurations (OM + CGP_4)",
        "CGHC-1K is ~12% slower than infinite; 2K+32K and 32K are close "
        "to infinite; on wisc+tpch the infinite CGHC is slightly worse "
        "than most finite ones (more useless prefetches).",
        FIG5_VARIANTS + [f"vs_inf:{v}" for v in FIG5_VARIANTS[:-1]],
    )
    grid = runner.run_grid(
        [RunSpec(workload, "OM", ("cgp", 4), cghc=variant)
         for workload in workloads for variant in FIG5_VARIANTS],
        grid="fig5",
    )
    for workload in workloads:
        values = {}
        for variant in FIG5_VARIANTS:
            stats = grid.get(RunSpec(workload, "OM", ("cgp", 4), cghc=variant))
            if stats is not None:
                values[variant] = stats.cycles
        infinite = values.get("CGHC-Inf")
        for variant in FIG5_VARIANTS[:-1]:
            if infinite and variant in values:
                values[f"vs_inf:{variant}"] = values[variant] / infinite
        result.add_row(workload, values)
    result.failures = grid.failure_report()
    return result


# ----------------------------------------------------------------------
# Figure 6: NL vs CGP (and the perfect I-cache bound)
# ----------------------------------------------------------------------

FIG6_CONFIGS = [
    ("O5", "O5", None, False),
    ("O5+OM", "OM", None, False),
    ("OM+NL_2", "OM", ("nl", 2), False),
    ("OM+NL_4", "OM", ("nl", 4), False),
    ("OM+CGP_2", "OM", ("cgp", 2), False),
    ("OM+CGP_4", "OM", ("cgp", 4), False),
    ("perf-Icache", "OM", None, True),
]


def fig6(runner, workloads=DB_WORKLOADS):
    result = ExperimentResult(
        "fig6",
        "Performance comparison of O5, OM, NL and CGP",
        "CGP outperforms NL by ~7% and comes within ~19% of a perfect "
        "I-cache.",
        [name for name, *_rest in FIG6_CONFIGS]
        + ["speedup:CGP4_over_NL4", "gap:CGP4_to_perfect"],
    )
    grid = runner.run_grid(
        [RunSpec(workload, layout_name, spec, perfect=perfect)
         for workload in workloads
         for _name, layout_name, spec, perfect in FIG6_CONFIGS],
        grid="fig6",
    )
    for workload in workloads:
        values = {}
        for name, layout_name, spec, perfect in FIG6_CONFIGS:
            stats = grid.get(
                RunSpec(workload, layout_name, spec, perfect=perfect))
            if stats is not None:
                values[name] = stats.cycles
        if {"OM+NL_4", "OM+CGP_4", "perf-Icache"} <= values.keys():
            values["speedup:CGP4_over_NL4"] = (
                values["OM+NL_4"] / values["OM+CGP_4"]
            )
            values["gap:CGP4_to_perfect"] = (
                values["OM+CGP_4"] / values["perf-Icache"] - 1.0
            )
        result.add_row(workload, values)
    result.failures = grid.failure_report()
    return result


# ----------------------------------------------------------------------
# Figure 7: I-cache misses
# ----------------------------------------------------------------------

FIG7_CONFIGS = [
    ("O5", "O5", None),
    ("O5+OM", "OM", None),
    ("OM+NL_4", "OM", ("nl", 4)),
    ("OM+CGP_4", "OM", ("cgp", 4)),
]


def fig7(runner, workloads=DB_WORKLOADS):
    result = ExperimentResult(
        "fig7",
        "I-cache miss comparison of O5, OM, NL and CGP",
        "Relative to O5, OM removes ~21% of I-cache misses, OM+NL ~77%, "
        "OM+CGP ~87%.",
        [name for name, *_rest in FIG7_CONFIGS]
        + ["reduction:OM", "reduction:NL", "reduction:CGP"],
    )
    grid = runner.run_grid(
        [RunSpec(workload, layout_name, spec)
         for workload in workloads
         for _name, layout_name, spec in FIG7_CONFIGS],
        grid="fig7",
    )
    for workload in workloads:
        values = {}
        for name, layout_name, spec in FIG7_CONFIGS:
            stats = grid.get(RunSpec(workload, layout_name, spec))
            if stats is not None:
                values[name] = stats.demand_misses
        if len(values) == len(FIG7_CONFIGS):
            base = values["O5"] or 1
            values["reduction:OM"] = 1.0 - values["O5+OM"] / base
            values["reduction:NL"] = 1.0 - values["OM+NL_4"] / base
            values["reduction:CGP"] = 1.0 - values["OM+CGP_4"] / base
        result.add_row(workload, values)
    result.failures = grid.failure_report()
    return result


# ----------------------------------------------------------------------
# Figure 8: prefetch effectiveness (pref hits / delayed hits / useless)
# ----------------------------------------------------------------------

FIG8_CONFIGS = [
    ("NL_2", ("nl", 2)),
    ("NL_4", ("nl", 4)),
    ("CGP_2", ("cgp", 2)),
    ("CGP_4", ("cgp", 4)),
]


def fig8(runner, workloads=DB_WORKLOADS):
    result = ExperimentResult(
        "fig8",
        "Prefetch effectiveness and bus traffic (OM binaries)",
        "CGP issues ~3% more useful prefetches than NL with comparable "
        "useless prefetches; CGP_4 has fewer delayed hits than NL_4 "
        "(more timely).",
        [f"{name}:{kind}" for name, _s in FIG8_CONFIGS
         for kind in ("pref_hits", "delayed_hits", "useless", "issued")],
    )
    grid = runner.run_grid(
        [RunSpec(workload, "OM", spec)
         for workload in workloads for _name, spec in FIG8_CONFIGS],
        grid="fig8",
    )
    for workload in workloads:
        values = {}
        for name, spec in FIG8_CONFIGS:
            stats = grid.get(RunSpec(workload, "OM", spec))
            if stats is None:
                continue
            hits = delayed = useless = issued = 0
            for p in stats.prefetch.values():
                hits += p.pref_hits
                delayed += p.delayed_hits
                useless += p.useless
                issued += p.issued
            values[f"{name}:pref_hits"] = hits
            values[f"{name}:delayed_hits"] = delayed
            values[f"{name}:useless"] = useless
            values[f"{name}:issued"] = issued
        result.add_row(workload, values)
    result.failures = grid.failure_report()
    return result


# ----------------------------------------------------------------------
# Figure 9: CGP_4 prefetches split by origin (NL part vs CGHC part)
# ----------------------------------------------------------------------


def fig9(runner, workloads=DB_WORKLOADS):
    result = ExperimentResult(
        "fig9",
        "CGP_4 prefetches due to NL vs CGHC",
        "~40% of the NL-portion prefetches are useful versus ~77% of the "
        "CGHC-portion prefetches.",
        ["nl:useful_fraction", "cghc:useful_fraction",
         "nl:pref_hits", "nl:delayed_hits", "nl:useless",
         "cghc:pref_hits", "cghc:delayed_hits", "cghc:useless"],
    )
    grid = runner.run_grid(
        [RunSpec(workload, "OM", ("cgp", 4)) for workload in workloads],
        grid="fig9",
    )
    for workload in workloads:
        stats = grid.get(RunSpec(workload, "OM", ("cgp", 4)))
        if stats is None:
            result.add_row(workload, {})
            continue
        values = {}
        for origin in ("nl", "cghc"):
            p = stats.prefetch_origin(origin)
            values[f"{origin}:pref_hits"] = p.pref_hits
            values[f"{origin}:delayed_hits"] = p.delayed_hits
            values[f"{origin}:useless"] = p.useless
            accounted = p.accounted() or 1
            values[f"{origin}:useful_fraction"] = p.useful() / accounted
        result.add_row(workload, values)
    result.failures = grid.failure_report()
    return result


# ----------------------------------------------------------------------
# Figure 10: CPU2000
# ----------------------------------------------------------------------

FIG10_CONFIGS = [
    ("O5+OM", None, False),
    ("OM+NL_4", ("nl", 4), False),
    ("OM+CGP_4", ("cgp", 4), False),
    ("perf-Icache", None, True),
]


def _fig10_cell(benchmark, target_instructions, sim_config):
    """All FIG10 configs for one CPU2000 benchmark (one engine task:
    the trace and layout are built once per benchmark)."""
    image, trace = cpu2000.build_benchmark(
        benchmark, target_instructions=target_instructions
    )
    profile = profile_of(trace)
    layout = om_layout(image, profile, instr_scale=1.0)
    values = {}
    for name, spec, perfect in FIG10_CONFIGS:
        config = (
            replace(sim_config, perfect_icache=True) if perfect else sim_config
        )
        prefetcher = _make_prefetcher(spec, layout, "CGHC-2K+32K")
        stats = simulate(trace, layout, config, prefetcher=prefetcher)
        values[name] = stats.cycles
        if name == "O5+OM":
            values["miss_ratio"] = stats.miss_rate
    values["gap_to_perfect"] = values["O5+OM"] / values["perf-Icache"] - 1.0
    values["nl_vs_cgp"] = values["OM+NL_4"] / values["OM+CGP_4"]
    return values


def fig10(benchmarks=cpu2000.BENCHMARK_NAMES, target_instructions=2_000_000,
          sim_config=TABLE_1, engine=None):
    """CPU2000 figure.  ``engine`` is any runner exposing ``run_tasks``
    (the benchmarks carry their own artifacts, so they go through the
    engine's generic task lane rather than the RunSpec grid)."""
    result = ExperimentResult(
        "fig10",
        "Effectiveness of CGP on CPU2000 applications",
        "With a 32KB I-cache the gap to a perfect I-cache is ~17% for "
        "gcc, ~9% for crafty, ~2% for gap and <1% elsewhere; where misses "
        "exist NL_4 performs about as well as CGP_4.",
        [name for name, _s, _p in FIG10_CONFIGS]
        + ["miss_ratio", "gap_to_perfect", "nl_vs_cgp"],
    )
    tasks = [
        (benchmark,
         functools.partial(_fig10_cell, benchmark, target_instructions,
                           sim_config))
        for benchmark in benchmarks
    ]
    if engine is None:
        engine = ExperimentRunner(sim_config=sim_config)
    grid = engine.run_tasks(tasks, grid="fig10")
    for benchmark in benchmarks:
        values = grid.get(benchmark)
        if values is not None:
            result.add_row(benchmark, values)
    result.failures = grid.failure_report()
    return result


# ----------------------------------------------------------------------
# §5.6: run-ahead NL ablation
# ----------------------------------------------------------------------


def runahead_ablation(runner, workloads=DB_WORKLOADS, run_ahead=4):
    result = ExperimentResult(
        "runahead",
        "Run-ahead NL prefetching (rejected design, §5.6)",
        "Run-ahead NL is much worse than plain NL: with ~43 instructions "
        "between calls it prefetches too many useless lines from too far "
        "ahead.",
        ["OM+NL_4", "OM+RA-NL_4", "OM+CGP_4", "ra_slowdown_vs_nl",
         "ra_useless", "nl_useless"],
    )
    specs = {
        "OM+NL_4": ("nl", 4),
        "OM+RA-NL_4": ("ra-nl", 4, run_ahead),
        "OM+CGP_4": ("cgp", 4),
    }
    grid = runner.run_grid(
        [RunSpec(workload, "OM", spec)
         for workload in workloads for spec in specs.values()],
        grid="runahead",
    )
    for workload in workloads:
        nl = grid.get(RunSpec(workload, "OM", specs["OM+NL_4"]))
        ra = grid.get(RunSpec(workload, "OM", specs["OM+RA-NL_4"]))
        cgp = grid.get(RunSpec(workload, "OM", specs["OM+CGP_4"]))
        values = {}
        if nl is not None:
            values["OM+NL_4"] = nl.cycles
            values["nl_useless"] = sum(
                p.useless for p in nl.prefetch.values())
        if ra is not None:
            values["OM+RA-NL_4"] = ra.cycles
            values["ra_useless"] = sum(
                p.useless for p in ra.prefetch.values())
        if cgp is not None:
            values["OM+CGP_4"] = cgp.cycles
        if nl is not None and ra is not None:
            values["ra_slowdown_vs_nl"] = ra.cycles / nl.cycles
        result.add_row(workload, values)
    result.failures = grid.failure_report()
    return result


# ----------------------------------------------------------------------
# §3.2 / §5.4 statistics
# ----------------------------------------------------------------------


def workload_statistics(runner, workloads=DB_WORKLOADS):
    result = ExperimentResult(
        "stats",
        "Workload statistics (§3.2 fanout, §5.4 call spacing)",
        "80% of functions call fewer than 8 distinct functions; on "
        "average ~43 instructions execute between successive calls.",
        ["instructions", "calls", "instrs_between_calls",
         "fanout_below_8", "code_footprint_kb", "max_call_depth"],
    )
    from repro.instrument.trace import validate_trace

    for workload in workloads:
        artifacts = runner.artifacts(workload)
        trace = artifacts.trace
        instructions = trace.total_instructions()
        calls = trace.call_count()
        values = {
            "instructions": instructions,
            "calls": calls,
            "instrs_between_calls": instructions / max(1, calls),
            "fanout_below_8": artifacts.profile.fraction_with_fanout_below(8),
            "code_footprint_kb": artifacts.layouts["OM"].footprint_bytes() // 1024,
            "max_call_depth": validate_trace(trace, artifacts.image),
        }
        result.add_row(workload, values)
    return result


# ----------------------------------------------------------------------
# §4: database-size insensitivity
# ----------------------------------------------------------------------


def scale_sensitivity(runner_small, runner_large, workload="wisc-large-2"):
    result = ExperimentResult(
        "scale",
        "CGP benefit vs database size (§4)",
        "CGP improvements at a larger database size are quite similar to "
        "those at the small size.",
        ["scale", "speedup:OM+CGP_4_over_OM"],
    )
    for label, runner in (("small", runner_small), ("large", runner_large)):
        grid = runner.run_grid(
            [RunSpec(workload, "OM", None), RunSpec(workload, "OM", ("cgp", 4))],
            grid=f"scale-{label}",
        )
        om = grid.get(RunSpec(workload, "OM", None))
        cgp = grid.get(RunSpec(workload, "OM", ("cgp", 4)))
        values = {"scale": runner.scales[workload]}
        if om is not None and cgp is not None:
            values["speedup:OM+CGP_4_over_OM"] = om.cycles / cgp.cycles
        result.add_row(label, values)
        result.failures.extend(grid.failure_report())
    return result


# ----------------------------------------------------------------------
# Extensions: CGP vs NL on workloads beyond the paper's
# ----------------------------------------------------------------------


def _cgp_vs_nl(runner, workload, exp_id, title, claim):
    """O5, OM+NL_4 and OM+CGP_4 on one extension workload, with CGP's
    speedup over NL and both prefetchers' I-cache MPKI."""
    result = ExperimentResult(
        exp_id, title, claim,
        ["O5", "OM+NL_4", "OM+CGP_4", "speedup:CGP4_over_NL4",
         "mpki:NL_4", "mpki:CGP_4"],
    )
    specs = [
        RunSpec(workload, "O5", None),
        RunSpec(workload, "OM", ("nl", 4)),
        RunSpec(workload, "OM", ("cgp", 4)),
    ]
    grid = runner.run_grid(specs, grid=exp_id)
    base, nl, cgp = (grid.get(spec) for spec in specs)
    values = {}
    if base is not None:
        values["O5"] = base.cycles
    if nl is not None:
        values["OM+NL_4"] = nl.cycles
        values["mpki:NL_4"] = nl.mpki
    if cgp is not None:
        values["OM+CGP_4"] = cgp.cycles
        values["mpki:CGP_4"] = cgp.mpki
    if nl is not None and cgp is not None:
        values["speedup:CGP4_over_NL4"] = nl.cycles / cgp.cycles
    result.add_row(workload, values)
    result.failures = grid.failure_report()
    return result


def recovery_experiment(runner, workload="recovery"):
    """CGP vs next-N-line on restart recovery (extension, not a figure).

    The ``recovery`` workload traces the storage manager's restart path
    over a deterministically crashed volume (see
    :mod:`repro.workloads.recovery`): ARIES-lite redo/undo, torn-tail
    truncation, B+-tree rebuild, verification scan.  That call graph is
    deep, data-dependent, and cold — the shape §3 argues favors
    call-graph prediction over straight-line prefetching.
    """
    return _cgp_vs_nl(
        runner, workload, "recovery",
        "CGP on the crash-recovery path (extension)",
        "Recovery's deep cold call graph should favor CGP over "
        "next-N-line even more than steady-state query execution does.",
    )


def storage_scale_experiment(runner, workload="wisc-scale"):
    """CGP vs next-N-line when the database outgrows the buffer pool.

    The ``wisc-scale`` workload builds Wisconsin relations 10-100x
    larger than wisc-large through the streaming bulk loader (group
    commit, hash index on unique3), then traces only selective probes: a
    1% clustered range, a clustered point select, and a hash-index
    equality probe the planner picks from incremental statistics.  The
    traced call graph is index-descent-heavy — deep, data-dependent
    chains through btree/hash search, buffer pool, and disk — the shape
    §3 argues favors call-graph prediction, measured here at a scale
    where the heap no longer fits the pool.
    """
    return _cgp_vs_nl(
        runner, workload, "storage-scale",
        "CGP on the scaled-out storage engine (extension)",
        "Selective index probes on a 100x database keep CGP's advantage "
        "over next-N-line: the descent call chain is predictable from "
        "the call graph but not from straight-line order.",
    )


def serving_experiment(runner, workload="serving"):
    """CGP vs next-N-line on the multi-tenant SQL server (extension).

    The ``serving`` workload (see :mod:`repro.workloads.serving`) runs
    the real server front end in deterministic mode: four client
    streams across three tenants -- OLTP transactions, cached point
    lookups, deadline-armed scans, a streaming bulk load --
    interleaved one scheduling quantum at a time by deficit-weighted
    dispatch.  That is the paper's own scenario (§1-2): a threaded
    server whose interleaved query streams destroy instruction
    locality, with admission control, the prepared-statement cache,
    and conflict-retry paths layered on top of query execution.
    """
    return _cgp_vs_nl(
        runner, workload, "serving",
        "CGP on the multi-tenant serving path (extension)",
        "Quantum-interleaved client streams through the server front "
        "end are the paper's motivating workload shape; CGP should "
        "keep its advantage over next-N-line with the dispatch and "
        "session layers in the loop.",
    )
