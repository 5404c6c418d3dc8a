"""Opt-in observability for the replay core (see docs/OBSERVABILITY.md).

The simulator's :class:`~repro.uarch.stats.SimStats` reports whole-run
aggregates; this package explains them.  An
:class:`~repro.obsv.collector.AttributionCollector` handed to
``simulate(..., collector=...)`` buckets every demand miss, prefetch
outcome, and CGHC access by function id and DBMS layer, samples
windowed time-series (:class:`~repro.obsv.interval.IntervalSampler`),
and traces individual prefetches from issue to first use or eviction
(:class:`~repro.obsv.lifecycle.PrefetchLifecycle`).

Collection is opt-in: engines carry a ``collector`` attribute that is
``None`` by default, and every instrumentation site is guarded by one
branch on it.  With a collector attached, the fast engine's batched
kernels keep running and write the same line-indexed counters the
reference engine fills through the collector's methods.  Both replay
engines produce identical ``SimStats`` *and* identical attribution
payloads with collection on or off (enforced by the cross-engine
equivalence suites).
"""

from repro.obsv.collector import (
    ATTRIBUTION_SCHEMA_VERSION,
    AttributionCollector,
    validate_payload,
)
from repro.obsv.interval import IntervalSampler
from repro.obsv.layers import LAYER_NAMES, layer_of_module
from repro.obsv.lifecycle import PrefetchLifecycle, PrefetchRecord

__all__ = [
    "ATTRIBUTION_SCHEMA_VERSION",
    "AttributionCollector",
    "IntervalSampler",
    "LAYER_NAMES",
    "PrefetchLifecycle",
    "PrefetchRecord",
    "layer_of_module",
    "validate_payload",
]
