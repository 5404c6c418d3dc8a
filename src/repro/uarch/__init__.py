"""Microarchitecture simulator: caches, memory, RAS, fetch engine."""

from repro.uarch.cache import SetAssocCache
from repro.uarch.config import TABLE_1, CacheConfig, CghcConfig, SimConfig, cghc_variant
from repro.uarch.fast_engine import CompiledTrace, FastFetchEngine, compile_trace
from repro.uarch.fetch_engine import FetchEngine, engine_class, simulate
from repro.uarch.memsys import MemorySystem
from repro.uarch.ras import ModifiedReturnAddressStack, RasEntry
from repro.uarch.shard import EngineState, replay_sharded, shard_boundaries
from repro.uarch.stats import PrefetchStats, SimStats

__all__ = [
    "CacheConfig",
    "CghcConfig",
    "CompiledTrace",
    "EngineState",
    "FastFetchEngine",
    "FetchEngine",
    "compile_trace",
    "engine_class",
    "replay_sharded",
    "shard_boundaries",
    "MemorySystem",
    "ModifiedReturnAddressStack",
    "PrefetchStats",
    "RasEntry",
    "SetAssocCache",
    "SimConfig",
    "SimStats",
    "TABLE_1",
    "cghc_variant",
    "simulate",
]
