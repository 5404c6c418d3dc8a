"""Engine routing: ``simulate()`` runs the fast engine exactly where its
kernels inline everything, and the reference engine everywhere else.

``FastFetchEngine.supports`` is the one predicate.  A configuration it
refuses — a prefetcher the kernels do not inline, the
``l2_demand_priority`` ablation, or a CGP prefetcher whose entry table
belongs to another layout — replays on the reference ``FetchEngine``
under ``simulate(engine="fast")``, and a direct ``FastFetchEngine`` or
``replay_sharded`` call refuses it with ``SimulationError`` instead of
drifting.  ``engine_class`` resolves exactly the two engine names.
"""

from dataclasses import replace

import pytest

from repro.core import CgpPrefetcher, SoftwareCgpPrefetcher, train_call_sequences
from repro.errors import SimulationError
from repro.uarch.config import CghcConfig
from repro.uarch.fast_engine import FastFetchEngine
from repro.uarch.fetch_engine import FetchEngine, engine_class, simulate
from repro.uarch.prefetch.base import Prefetcher
from repro.uarch.prefetch.nl import NextNLinePrefetcher, TaggedNLPrefetcher
from repro.uarch.shard import replay_sharded

from tests.uarch.test_engine_equivalence import (
    CHAIN,
    SMALL_CONFIG,
    build_layout,
    make_prefetcher,
)

FINITE = CghcConfig(l1_bytes=4 * 40, l2_bytes=16 * 40)


class NextLineOnMiss(Prefetcher):
    """A custom prefetcher: the next line after every demand miss."""

    def on_line_access(self, line, engine):
        if engine.last_access_missed:
            engine.issue_prefetch(line + 1, "custom")


class CustomNL(NextNLinePrefetcher):
    """A subclass may override any hook, so only exact classes inline."""


#: id -> (layout the trace replays on, config, prefetcher factory)
UNSUPPORTED = {
    "tagged-nl": ("identity", SMALL_CONFIG,
                  lambda layout: TaggedNLPrefetcher(4)),
    "software-cgp": ("scrambled", SMALL_CONFIG,
                     lambda layout: SoftwareCgpPrefetcher(
                         4, train_call_sequences(CHAIN), layout)),
    "cghc-assoc2": ("scrambled", SMALL_CONFIG,
                    lambda layout: CgpPrefetcher(
                        4, replace(FINITE, assoc=2), layout)),
    "demand-priority": ("identity",
                        replace(SMALL_CONFIG, l2_demand_priority=True),
                        lambda layout: NextNLinePrefetcher(4)),
    "custom-prefetcher": ("identity", SMALL_CONFIG,
                          lambda layout: NextLineOnMiss()),
    "nl-subclass": ("identity", SMALL_CONFIG, lambda layout: CustomNL(4)),
    # entry tables of another layout: tags from one, set indices (and,
    # unbounded, a flat image sized) from the other
    "cgp-other-layout": ("scrambled", SMALL_CONFIG,
                         lambda layout: CgpPrefetcher(
                             4, FINITE, build_layout("identity"))),
    "cgp-inf-larger-layout": ("identity", SMALL_CONFIG,
                              lambda layout: CgpPrefetcher(
                                  4, CghcConfig(infinite=True),
                                  build_layout("scrambled"))),
}

SUPPORTED = {
    "none": ("identity", SMALL_CONFIG, lambda layout: None),
    "nl": ("identity", SMALL_CONFIG,
           lambda layout: make_prefetcher("nl", layout, 4)),
    "ra-nl": ("identity", SMALL_CONFIG,
              lambda layout: make_prefetcher("ra-nl", layout, 4)),
    "cgp": ("scrambled", SMALL_CONFIG,
            lambda layout: make_prefetcher("cgp", layout, 4)),
    "cgp-inf": ("scrambled", SMALL_CONFIG,
                lambda layout: make_prefetcher("cgp-inf", layout, 4)),
    "perfect-icache": ("scrambled",
                       replace(SMALL_CONFIG, perfect_icache=True),
                       lambda layout: make_prefetcher("cgp", layout, 4)),
}


@pytest.fixture
def fast_builds(monkeypatch):
    """Count the ``FastFetchEngine`` instances built while a test runs."""
    built = []
    original = FastFetchEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FastFetchEngine, "__init__", counting_init)
    return built


def replay(case, engine):
    layout_kind, config, factory = case
    layout = build_layout(layout_kind)
    return simulate(CHAIN, layout, config, prefetcher=factory(layout),
                    engine=engine).to_dict()


@pytest.mark.parametrize("name", sorted(UNSUPPORTED))
def test_simulate_routes_unsupported_to_reference(fast_builds, name):
    ref = replay(UNSUPPORTED[name], "reference")
    assert replay(UNSUPPORTED[name], "fast") == ref
    assert fast_builds == []


@pytest.mark.parametrize("name", sorted(SUPPORTED))
def test_simulate_runs_supported_on_fast_engine(fast_builds, name):
    ref = replay(SUPPORTED[name], "reference")
    assert replay(SUPPORTED[name], "fast") == ref
    assert len(fast_builds) == 1


@pytest.mark.parametrize("name", sorted(UNSUPPORTED))
def test_fast_engine_refuses_unsupported(name):
    layout_kind, config, factory = UNSUPPORTED[name]
    layout = build_layout(layout_kind)
    with pytest.raises(SimulationError):
        FastFetchEngine(config, layout, prefetcher=factory(layout))
    with pytest.raises(SimulationError):
        replay_sharded(CHAIN, layout, config, prefetcher=factory(layout),
                       n_shards=2)


def test_cgp_built_for_another_layout_matches_reference():
    """A CGP prefetcher built on one layout and replayed on another
    takes CGHC tags from its own entry table.  The fast kernel used to
    take set indices from the replayed layout instead, and issued CGHC
    prefetches the reference never does."""
    case = UNSUPPORTED["cgp-other-layout"]
    ref = replay(case, "reference")
    fast = replay(case, "fast")
    assert fast["prefetch"].get("cghc") == ref["prefetch"].get("cghc")
    assert fast == ref


def test_engine_class_resolves_only_the_two_engine_names():
    assert engine_class("fast") is FastFetchEngine
    assert engine_class("reference") is FetchEngine
    for name in ("ref", "optimized"):
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            engine_class(name)
