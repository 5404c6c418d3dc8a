"""Cross-engine equivalence on the real golden workloads.

The unit-level randomized equivalence suite lives in
``tests/uarch/test_engine_equivalence.py``; this one replays the actual
traced database workloads — every suite with a checked-in golden —
through both engines and requires identical ``SimStats.to_dict()``
output, so any divergence the small synthetic traces cannot reach
(deep RAS traffic, large CGHC working sets, OM layout permutations)
fails here.  Every cell here runs on the fast engine
(``FastFetchEngine.supports``); the configurations ``simulate()`` sends
to the reference engine are pinned by
``tests/uarch/test_engine_routing.py``.
"""

import pytest

from repro.harness.runner import _make_prefetcher
from repro.obsv import AttributionCollector, validate_payload
from repro.uarch import simulate

SUITES = ["wisc-prof", "wisc-large-1", "wisc-large-2", "wisc+tpch",
          "recovery", "wisc-scale", "serving"]

# layout x prefetcher x CGHC cells: the golden cell (OM + CGP_4) for
# every suite, plus the fig4 bracket and the unbounded CGHC of fig5 on
# the profiling workload
CGHC = "CGHC-2K+32K"
GOLDEN_CELL = ("OM", ("cgp", 4), CGHC)
EXTRA_CELLS = [
    ("O5", None, CGHC),
    ("O5", ("nl", 4), CGHC),
    ("OM", ("cgp", 4), "CGHC-Inf"),
    ("O5", ("ra-nl", 4, 2), CGHC),
    ("O5", ("cgp", 2), CGHC),
    ("OM", None, CGHC),
]
EXTRA_IDS = [f"{l}-{p[0] if p else 'none'}" + ("-inf" if c != CGHC else "")
             for l, p, c in EXTRA_CELLS]


def run_both(runner, suite, layout_name, pspec, cghc):
    art = runner.artifacts(suite)
    layout = art.layout(layout_name)
    ref = simulate(
        art.trace, layout, runner.sim_config,
        prefetcher=_make_prefetcher(pspec, layout, cghc),
        engine="reference",
    )
    fast = simulate(
        art.trace, layout, runner.sim_config,
        prefetcher=_make_prefetcher(pspec, layout, cghc),
        engine="fast",
    )
    return ref, fast


@pytest.mark.parametrize("suite", SUITES)
def test_golden_cell_identical_across_engines(small_runner, suite):
    ref, fast = run_both(small_runner, suite, *GOLDEN_CELL)
    assert ref.to_dict() == fast.to_dict()


@pytest.mark.parametrize("layout_name,pspec,cghc", EXTRA_CELLS,
                         ids=EXTRA_IDS)
def test_fig4_cells_identical_across_engines(small_runner, layout_name,
                                             pspec, cghc):
    ref, fast = run_both(small_runner, "wisc-prof", layout_name, pspec,
                         cghc)
    assert ref.to_dict() == fast.to_dict()


# every suite's golden cell, plus the extra cells on the profiling
# workload: the no-prefetcher kernel, NL, the unbounded CGHC, run-ahead
# NL and a second CGP degree
ATTRIBUTION_CELLS = (
    [pytest.param(suite, *GOLDEN_CELL, id=suite) for suite in SUITES]
    + [pytest.param("wisc-prof", *cell, id=f"wisc-prof-{cell_id}")
       for cell, cell_id in zip(EXTRA_CELLS, EXTRA_IDS)]
)


@pytest.mark.parametrize("suite,layout_name,pspec,cghc", ATTRIBUTION_CELLS)
def test_golden_cell_attribution_identical_across_engines(
        small_runner, suite, layout_name, pspec, cghc):
    """Collection enabled on the real workloads: identical ``SimStats``
    to the uninstrumented run, identical attribution payloads (layer
    tables, lateness histograms, interval samples, lifecycle traces)
    across both engines, and a payload that passes schema validation."""
    art = small_runner.artifacts(suite)
    layout = art.layout(layout_name)
    plain = simulate(
        art.trace, layout, small_runner.sim_config,
        prefetcher=_make_prefetcher(pspec, layout, cghc),
        engine="fast",
    )
    payloads = {}
    records = {}
    for engine in ("reference", "fast"):
        collector = AttributionCollector(
            layout, image=art.image, interval=200_000, lifecycle=512
        )
        stats = simulate(
            art.trace, layout, small_runner.sim_config,
            prefetcher=_make_prefetcher(pspec, layout, cghc),
            engine=engine, collector=collector,
        )
        assert stats.to_dict() == plain.to_dict()
        payloads[engine] = validate_payload(collector.to_dict())
        records[engine] = collector.lifecycle.records()
    assert payloads["reference"] == payloads["fast"]
    assert records["reference"] == records["fast"]
    # layers in the same order, not only with the same counts
    assert list(payloads["reference"]["layers"]) == list(
        payloads["fast"]["layers"])
    # the layer split actually resolved DBMS layers (module metadata
    # survived the freeze/expand pipeline); the recovery workload never
    # enters the query front-end — its trace is storage-layer only
    layers = set(payloads["fast"]["layers"])
    if suite == "recovery":
        assert "storage" in layers
        assert "parser" not in layers
    else:
        assert {"parser", "optimizer", "exec", "storage"} <= layers
    # the serving workload runs through the SQL server front end, so its
    # dispatch/admission code shows up as a layer of its own
    if suite == "serving":
        assert "server" in layers


def test_goldens_are_engine_agnostic(small_runner):
    """The checked-in goldens were produced by the default engine; the
    reference engine must reproduce them byte-for-byte as well."""
    import json

    from tests.harness.test_goldens import GOLDEN_SPEC, golden_path

    suite = "wisc-prof"
    ref, fast = run_both(small_runner, suite, *GOLDEN_SPEC, CGHC)
    with open(golden_path(suite)) as fh:
        golden = json.load(fh)
    assert fast.summary() == golden
    assert ref.summary() == golden
