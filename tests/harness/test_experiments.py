"""Experiment drivers at tiny scale: structure plus qualitative shape.

These assert the *orderings* the paper reports (who wins) and bands
around the paper's figures where the small scales already hold them;
the factor checks live in the benchmark harness at larger scale (see
benchmarks/ and EXPERIMENTS.md).
"""

import pytest

from repro.harness import (
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    render_experiment,
    runahead_ablation,
    workload_statistics,
)
from repro.harness.experiments import (
    recovery_experiment,
    serving_experiment,
    storage_scale_experiment,
)

WORKLOADS = ["wisc-prof"]
#: the Figure 5 and workload-statistics bands hold on both
BAND_WORKLOADS = ["wisc-prof", "wisc-large-2"]


@pytest.fixture(scope="module")
def f4(small_runner):
    return fig4(small_runner, workloads=WORKLOADS)


def test_fig4_orderings(f4):
    row = f4.row("wisc-prof")
    assert row["O5"] > row["O5+OM"]  # OM speeds up O5
    assert row["O5+OM"] > row["O5+OM+CGP_4"]  # CGP speeds up OM
    assert row["O5+CGP_4"] < row["O5+OM"]  # CGP alone beats OM alone
    assert row["speedup:O5+OM+CGP_4"] > row["speedup:O5+OM"]


def test_fig4_cgp4_at_least_cgp2(f4):
    row = f4.row("wisc-prof")
    assert row["O5+OM+CGP_4"] <= row["O5+OM+CGP_2"] * 1.05


def test_fig5_structure(small_runner):
    result = fig5(small_runner, workloads=BAND_WORKLOADS)
    for workload in BAND_WORKLOADS:
        row = result.row(workload)
        for variant in ("CGHC-1K", "CGHC-32K", "CGHC-1K+16K", "CGHC-2K+32K",
                        "CGHC-Inf"):
            assert row[variant] > 0, (workload, variant)
        # the small CGHC is strictly slower than the infinite one
        # (paper: ~12%; 6-7% at these scales)
        assert row["vs_inf:CGHC-1K"] > 1.0, workload
        # the paper's pick is close to infinite
        assert row["vs_inf:CGHC-2K+32K"] == pytest.approx(1.0, abs=0.06), \
            workload


def test_fig6_orderings(small_runner):
    result = fig6(small_runner, workloads=WORKLOADS)
    row = result.row("wisc-prof")
    assert row["O5"] > row["O5+OM"] > row["OM+NL_4"]
    assert row["OM+CGP_4"] < row["OM+NL_4"]  # CGP beats NL
    assert row["perf-Icache"] < row["OM+CGP_4"]  # bound
    assert row["speedup:CGP4_over_NL4"] > 1.0
    assert 0.0 < row["gap:CGP4_to_perfect"] < 0.6


def test_fig7_miss_reductions_ordered(small_runner):
    result = fig7(small_runner, workloads=WORKLOADS)
    row = result.row("wisc-prof")
    assert row["O5"] > row["O5+OM"] > row["OM+NL_4"] > row["OM+CGP_4"]
    assert row["reduction:CGP"] > row["reduction:NL"] > row["reduction:OM"]


def test_fig8_accounting(small_runner):
    result = fig8(small_runner, workloads=WORKLOADS)
    row = result.row("wisc-prof")
    for config in ("NL_2", "NL_4", "CGP_2", "CGP_4"):
        accounted = (
            row[f"{config}:pref_hits"]
            + row[f"{config}:delayed_hits"]
            + row[f"{config}:useless"]
        )
        assert accounted == row[f"{config}:issued"]
    # CGP_4 is at least as timely as NL_4 (paper: fewer delayed hits)
    assert row["CGP_4:delayed_hits"] <= row["NL_4:delayed_hits"]


def test_fig9_cghc_more_accurate_than_nl(small_runner):
    result = fig9(small_runner, workloads=WORKLOADS)
    row = result.row("wisc-prof")
    assert row["cghc:useful_fraction"] > row["nl:useful_fraction"]
    assert row["cghc:useful_fraction"] > 0.5


def test_fig10_gcc_worst_and_nl_matches_cgp():
    result = fig10(target_instructions=300_000)
    gaps = {label: values["gap_to_perfect"] for label, values in result.rows}
    assert max(gaps, key=gaps.get) == "gcc"
    assert gaps["gzip"] < 0.05
    assert gaps["bzip2"] < 0.05
    for _label, values in result.rows:
        assert values["nl_vs_cgp"] == pytest.approx(1.0, abs=0.05)


def test_runahead_worse_than_nl(small_runner):
    result = runahead_ablation(small_runner, workloads=WORKLOADS)
    row = result.row("wisc-prof")
    assert row["ra_slowdown_vs_nl"] > 1.0
    assert row["ra_useless"] > row["nl_useless"]


def test_workload_statistics(small_runner):
    result = workload_statistics(small_runner, workloads=BAND_WORKLOADS)
    for workload in BAND_WORKLOADS:
        row = result.row(workload)
        assert 20 <= row["instrs_between_calls"] <= 120, workload  # ~43
        assert row["fanout_below_8"] == pytest.approx(0.80, abs=0.05), \
            workload  # paper: 0.80
        assert row["code_footprint_kb"] * 1024 > 32 * 1024, workload  # > L1
        assert row["max_call_depth"] >= 5, workload


@pytest.mark.parametrize("driver,workload", [
    (recovery_experiment, "recovery"),
    (storage_scale_experiment, "wisc-scale"),
    (serving_experiment, "serving"),
])
def test_extension_drivers_compare_cgp_with_nl(small_runner, driver,
                                               workload):
    result = driver(small_runner)
    assert result.failures == []
    assert result.columns == ["O5", "OM+NL_4", "OM+CGP_4",
                              "speedup:CGP4_over_NL4", "mpki:NL_4",
                              "mpki:CGP_4"]
    ((label, values),) = result.rows
    assert label == workload
    assert set(values) == set(result.columns)
    assert values["speedup:CGP4_over_NL4"] == (
        values["OM+NL_4"] / values["OM+CGP_4"])


def test_render_experiment_text_and_markdown(f4):
    text = render_experiment(f4)
    assert "fig4" in text
    assert "wisc-prof" in text
    markdown = render_experiment(f4, markdown=True)
    assert markdown.startswith("###")
    assert "|" in markdown


def test_geomean(f4):
    assert f4.geomean("speedup:O5+OM") > 0
