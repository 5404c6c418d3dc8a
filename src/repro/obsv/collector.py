"""Per-function / per-layer attribution of simulator events.

The :class:`AttributionCollector` is the hub of the observability
layer.  Both replay engines record the same classifications into it —
demand misses, the Figure-8 prefetch outcomes, CGHC accesses — keyed
by the *line address* involved: the reference engine through the
methods below, the fast engine's batched kernels by writing the same
line-indexed count arrays (:attr:`AttributionCollector.per_line`)
directly.  Reports fold those arrays into per-function rows through
the :class:`~repro.layout.layouts.AddressMap` (functions occupy
contiguous line spans, so a function's row is a slice sum) and, through
the :class:`~repro.instrument.codeimage.CodeImage` module metadata,
into DBMS layers.

The collector has no engine state of its own: everything it reports is
a pure function of the counts the engines record, which is what lets
the cross-engine equivalence suites require bit-identical payloads
from both cores.
"""

from __future__ import annotations

from itertools import accumulate

from repro.obsv.interval import IntervalSampler
from repro.obsv.layers import layer_of_module
from repro.obsv.lifecycle import PrefetchLifecycle

#: Version of the ``to_dict()`` payload layout.
ATTRIBUTION_SCHEMA_VERSION = 1

#: Per-function counter names, in row order.
COUNTER_NAMES = (
    "demand_misses", "memory_fetches", "pref_hits", "delayed_hits",
    "useless", "squashed", "issued", "cghc_l1_hits", "cghc_l2_hits",
    "cghc_misses",
)

_N = len(COUNTER_NAMES)
# row indices (module-level so the engines' call sites stay readable)
_DEMAND, _MEM, _PREF_HIT, _DELAYED, _USELESS, _SQUASHED, _ISSUED = range(7)
_CGHC_BASE = 7  # + level (0 = l1 hit, 1 = l2 hit, 2 = miss)


class AttributionCollector:
    """Buckets simulator events per function id and DBMS layer.

    ``layout`` maps lines to functions; ``image`` (optional) supplies
    names and defining modules for the report.  ``interval`` (an
    instruction count) attaches an :class:`IntervalSampler`;
    ``lifecycle`` (a ring capacity) attaches a
    :class:`PrefetchLifecycle` tracer.
    """

    def __init__(self, layout, image=None, interval=None, lifecycle=0):
        self._image = image
        self._extents = list(zip(layout.base_line, layout.size_lines))
        total = layout.total_lines
        #: Line-indexed counters, one list per ``COUNTER_NAMES`` slot.
        #: The ``squashed`` slot holds every in-range prefetch *attempt*
        #: (issued or squashed) as a difference array of length
        #: ``total_lines + 1``: an attempt on the span ``[a, b)`` adds 1
        #: at ``a`` and subtracts 1 at ``b``, so a batched span walk
        #: records the lines it never visits in two writes.  A line's
        #: squash count is its attempt coverage minus its issues.
        self.per_line = [[0] * total for _ in range(_N)]
        self.per_line[_SQUASHED].append(0)
        self._out_of_range = {}  # origin -> count
        self._lateness = {}  # origin -> {power-of-two bucket -> count}
        self.interval = IntervalSampler(interval) if interval else None
        self.lifecycle = PrefetchLifecycle(lifecycle) if lifecycle else None

    # ------------------------------------------------------------------
    # engine call sites (the reference engine; the fast engine writes
    # ``per_line`` directly and folds the rest at kernel exit)
    # ------------------------------------------------------------------
    def demand_miss(self, line, from_mem):
        self.per_line[_DEMAND][line] += 1
        if from_mem:
            self.per_line[_MEM][line] += 1

    def issued(self, line, origin, cycle, arrival):
        self.per_line[_ISSUED][line] += 1
        self.squashed(line, origin)  # an attempt, like every squash
        if self.lifecycle is not None:
            self.lifecycle.issue(line, origin, cycle, arrival)

    def squashed(self, line, origin):
        attempts = self.per_line[_SQUASHED]
        attempts[line] += 1
        attempts[line + 1] -= 1

    def out_of_range(self, origin, n=1):
        # no in-range line to attribute to: counted per origin only
        self._out_of_range[origin] = self._out_of_range.get(origin, 0) + n

    def late(self, origin, bucket, n=1):
        """``n`` delayed hits of ``origin`` in lateness ``bucket``."""
        hist = self._lateness.get(origin)
        if hist is None:
            hist = self._lateness[origin] = {}
        hist[bucket] = hist.get(bucket, 0) + n

    def pref_hit(self, line, origin, cycle):
        self.per_line[_PREF_HIT][line] += 1
        if self.lifecycle is not None:
            self.lifecycle.close(line, "pref_hit", cycle)

    def delayed_hit(self, line, origin, stall, cycle):
        self.per_line[_DELAYED][line] += 1
        # 2^(b-1) <= late < 2^b
        self.late(origin, int(stall).bit_length())
        if self.lifecycle is not None:
            self.lifecycle.close(line, "delayed_hit", cycle)

    def useless(self, line, origin, cycle):
        self.per_line[_USELESS][line] += 1
        if self.lifecycle is not None:
            self.lifecycle.close(line, "useless", cycle)

    def cghc_access(self, tag, level):
        """One CGHC access keyed by ``tag`` (a function's entry line);
        ``level`` is 0 (first-level hit), 1 (second-level hit), or 2
        (miss)."""
        self.per_line[_CGHC_BASE + level][tag] += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _rows(self):
        """fid -> counter row, in fid order, for every function with a
        nonzero counter."""
        per_line = self.per_line
        coverage = list(accumulate(per_line[_SQUASHED]))
        rows = {}
        for fid, (start, span) in enumerate(self._extents):
            end = start + span
            row = [sum(counts[start:end]) for counts in per_line]
            row[_SQUASHED] = sum(coverage[start:end]) - row[_ISSUED]
            if any(row):
                rows[fid] = row
        return rows

    def _describe(self, fid):
        if self._image is None:
            return None, None
        info = self._image.info(fid)
        return info.name, getattr(info, "module", None)

    def function_table(self):
        """fid -> {name, module, layer, counters...}, in fid order."""
        return self._function_table(self._rows())

    def _function_table(self, rows):
        table = {}
        for fid, row in rows.items():
            name, module = self._describe(fid)
            entry = {"name": name, "module": module,
                     "layer": layer_of_module(module)}
            entry.update(zip(COUNTER_NAMES, row))
            table[fid] = entry
        return table

    def layer_table(self):
        """Layer -> summed counters, by demand misses (descending), ties
        by layer name."""
        return self._layer_table(self._rows())

    def _layer_table(self, rows):
        layers = {}
        for fid, row in rows.items():
            layer = layer_of_module(self._describe(fid)[1])
            bucket = layers.get(layer)
            if bucket is None:
                bucket = layers[layer] = [0] * _N
            for i in range(_N):
                bucket[i] += row[i]
        return {
            layer: dict(zip(COUNTER_NAMES, counts))
            for layer, counts in sorted(
                layers.items(), key=lambda kv: (-kv[1][_DEMAND], kv[0])
            )
        }

    def top_functions(self, k=10, by="demand_misses"):
        """The k hottest functions by one counter, descending."""
        index = COUNTER_NAMES.index(by)
        ranked = sorted(
            self._rows().items(), key=lambda kv: (-kv[1][index], kv[0])
        )
        table = []
        for fid, row in ranked[:k]:
            if row[index] == 0:
                break
            name, module = self._describe(fid)
            entry = {"fid": fid, "name": name,
                     "layer": layer_of_module(module)}
            entry.update(zip(COUNTER_NAMES, row))
            table.append(entry)
        return table

    def lateness_histogram(self):
        """origin -> {bucket -> count}; bucket b covers delayed hits
        late by [2^(b-1), 2^b) cycles (b = 0: under one cycle)."""
        return {
            origin: dict(sorted(hist.items()))
            for origin, hist in sorted(self._lateness.items())
        }

    def to_dict(self):
        """JSON-ready attribution payload (stable key order)."""
        rows = self._rows()
        return {
            "schema_version": ATTRIBUTION_SCHEMA_VERSION,
            "functions": {
                str(fid): entry
                for fid, entry in self._function_table(rows).items()
            },
            "layers": self._layer_table(rows),
            "out_of_range": dict(sorted(self._out_of_range.items())),
            "lateness": {
                origin: {str(b): n for b, n in hist.items()}
                for origin, hist in self.lateness_histogram().items()
            },
            "lifecycle": (None if self.lifecycle is None
                          else self.lifecycle.summary()),
            "intervals": [] if self.interval is None else self.interval.samples,
        }




def validate_payload(payload):
    """Validate an attribution payload against the v1 schema.

    Raises ``ValueError`` naming the first violation; used by
    ``scripts/report_attrib.py`` (and CI) to fail loudly on drift.
    """
    def fail(msg):
        raise ValueError(f"attribution payload: {msg}")

    if not isinstance(payload, dict):
        fail("not a dict")
    if payload.get("schema_version") != ATTRIBUTION_SCHEMA_VERSION:
        fail(f"schema_version {payload.get('schema_version')!r} != "
             f"{ATTRIBUTION_SCHEMA_VERSION}")
    for key in ("functions", "layers", "out_of_range", "lateness",
                "lifecycle", "intervals"):
        if key not in payload:
            fail(f"missing key {key!r}")

    total_delayed = 0
    for fid, entry in payload["functions"].items():
        if not str(fid).lstrip("-").isdigit():
            fail(f"non-integer function id {fid!r}")
        for counter in COUNTER_NAMES:
            value = entry.get(counter)
            if not isinstance(value, int) or value < 0:
                fail(f"function {fid}: bad counter {counter}={value!r}")
        # every issued prefetch is classified exactly once, to the
        # same line (hence the same function) it was issued for
        accounted = (entry["pref_hits"] + entry["delayed_hits"]
                     + entry["useless"])
        if entry["issued"] != accounted:
            fail(f"function {fid}: issued {entry['issued']} != "
                 f"accounted {accounted}")
        total_delayed += entry["delayed_hits"]

    for layer, entry in payload["layers"].items():
        for counter in COUNTER_NAMES:
            value = entry.get(counter)
            if not isinstance(value, int) or value < 0:
                fail(f"layer {layer}: bad counter {counter}={value!r}")
    for counter in COUNTER_NAMES:
        functions_sum = sum(
            e[counter] for e in payload["functions"].values()
        )
        layers_sum = sum(e[counter] for e in payload["layers"].values())
        if functions_sum != layers_sum:
            fail(f"layer rollup of {counter} ({layers_sum}) != "
                 f"function total ({functions_sum})")

    lateness_total = sum(
        n for hist in payload["lateness"].values() for n in hist.values()
    )
    if lateness_total != total_delayed:
        fail(f"lateness histogram total {lateness_total} != "
             f"delayed hits {total_delayed}")

    previous = None
    for sample in payload["intervals"]:
        for key in ("instructions", "cycles", "ipc", "miss_rate",
                    "prefetch_usefulness", "partial"):
            if key not in sample:
                fail(f"interval sample missing {key!r}")
        if previous is not None and sample["instructions"] < previous:
            fail("interval samples not ordered by instructions")
        previous = sample["instructions"]
    return payload
