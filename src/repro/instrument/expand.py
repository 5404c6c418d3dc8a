"""Runtime-library expansion: materializing the hidden call layer.

**Why this exists.**  The paper traces compiled C++ where the storage
manager averages one function call every ~43 instructions (§5.4), and a
single tuple's processing touches far more code than a 32KB L1 I-cache
holds.  Python hides exactly that layer: each bytecode op (attribute
lookup, struct pack, list append, dict probe ...) is a call into the
CPython runtime that ``sys.setprofile`` cannot see, so the raw traces
have unrealistically long straight-line segments and a hot code
footprint far below a real DBMS's.

This pass restores that layer *deterministically*: every ``S``
instructions of straight-line execution inside a traced function F, a
call to a **runtime helper** is inserted.  Helper identity is a pure
function of (F, call-site block), so the same call site always calls the
same helper — stable call sequences, which is precisely the property
CGP exploits and the property real call sites have.  Helpers are drawn
from a shared pool (collisions model shared utilities like the paper's
``lock_record``, called from many places); a fixed fraction of helpers
call a second-level sub-helper, giving the call graph depth.

The expansion is applied identically before every layout/prefetcher
configuration, so it shifts the *workload model*, never the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as _np

from repro.errors import TraceError
from repro.instrument.trace import CALL, EXEC, RET, Trace

_MIX_1 = 2654435761
_MIX_2 = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix(a, b):
    value = (a * _MIX_1 + b * 1013904223 + 0x5BD1E995) & _MASK
    value ^= value >> 29
    value = (value * _MIX_2) & _MASK
    value ^= value >> 32
    return value


@dataclass(frozen=True)
class ExpansionConfig:
    """Geometry of the synthetic runtime library."""

    call_every_instrs: int = 32  # S: helper call spacing in caller code
    helpers_per_function: int = 6  # distinct helper slots per caller
    pool_size: int = 320  # shared helper pool
    helper_min_instrs: int = 8
    helper_max_instrs: int = 64
    two_level_every: int = 4  # 1 in k helpers calls a sub-helper
    seed: int = 97


class RuntimeLibrary:
    """The synthetic helper pool, registered into a code image."""

    def __init__(self, image, config=ExpansionConfig()):
        if (config.call_every_instrs <= 0 or config.pool_size <= 0
                or config.helpers_per_function <= 0
                or config.two_level_every <= 0
                or config.helper_min_instrs > config.helper_max_instrs):
            raise TraceError(f"bad expansion configuration {config}")
        self.config = config
        self.image = image
        self.helper_fids = []
        self.helper_sizes = []
        spread = config.helper_max_instrs - config.helper_min_instrs + 1
        for index in range(config.pool_size):
            size = config.helper_min_instrs + _mix(config.seed, index) % spread
            info = image.register_synthetic(f"rt::helper_{index:03d}", size)
            self.helper_fids.append(info.fid)
            self.helper_sizes.append(info.size_instrs)

    def slot_of(self, callsite_offset):
        """A call site's helper slot (an int, or an int array): its
        ``call_every_instrs`` block, modulo ``helpers_per_function``."""
        return ((callsite_offset // self.config.call_every_instrs)
                % self.config.helpers_per_function)

    def helper_for(self, caller_fid, callsite_offset):
        """Deterministic helper for one call site of one caller."""
        slot = self.slot_of(callsite_offset)
        return _mix(caller_fid, slot) % self.config.pool_size

    def sub_helper_of(self, helper_index):
        """Second-level helper, or None (a fixed fraction have one)."""
        if _mix(helper_index, 7919) % self.config.two_level_every != 0:
            return None
        return _mix(helper_index, 104729) % self.config.pool_size


def expand_trace(trace, image, config=ExpansionConfig()):
    """Insert runtime-helper calls into ``trace``.

    Registers the helper pool into ``image`` (idempotent growth) and
    returns a new :class:`Trace`.

    An EXEC spanning ``d`` instructions is cut every ``S`` instructions
    (stepping down for a backward span) into ``max(0, (d - 1) // S)``
    full chunks and one last chunk of at most ``S``; each chunk ends
    where the next one starts.  After each full chunk comes one helper
    call: ``EXEC CALL EXEC RET`` for a one-level helper, ``EXEC CALL
    EXEC CALL EXEC RET EXEC RET`` for one that calls a sub-helper from
    its middle.  Other events pass through.  The whole trace is laid
    out with array passes: every input event owns its full chunks
    followed by one tail unit (its last chunk, or itself), so output
    positions are one prefix sum of the unit sizes.
    """
    library = RuntimeLibrary(image, config)
    spacing = config.call_every_instrs
    n = len(trace)
    kinds = _np.frombuffer(trace.kinds, dtype=_np.int8, count=n)
    a = _np.frombuffer(trace.a, dtype=_np.int64, count=n)
    b = _np.frombuffer(trace.b, dtype=_np.int64, count=n)
    c = _np.frombuffer(trace.c, dtype=_np.int64, count=n)
    step = _np.where(c >= b, spacing, -spacing)
    calls = _np.where(kinds == EXEC,
                      _np.maximum((_np.abs(c - b) - 1) // spacing, 0), 0)

    # ---- one row per full chunk: its span and its helper ----
    event = _np.repeat(_np.arange(n), calls)
    steps = _np.arange(1, event.size + 1) - _np.repeat(
        _np.cumsum(calls) - calls, calls)
    fid = a[event]
    nxt = b[event] + steps * step[event]
    cursor = nxt - step[event]
    site = _np.abs(nxt)
    # helper per distinct (caller, slot), from the slot's first offset
    slots = config.helpers_per_function
    callers, caller_of = _np.unique(fid, return_inverse=True)
    keys, key_of = _np.unique(caller_of * slots + library.slot_of(site),
                              return_inverse=True)
    caller_fids = callers.tolist()
    index = _np.array(
        [library.helper_for(caller_fids[key // slots], key % slots * spacing)
         for key in keys.tolist()], dtype=_np.int64)[key_of]
    # a helper without a sub-helper, or whose sub-helper is itself,
    # takes the one-level shape
    sub_index = _np.array(
        [i if sub is None else sub for i, sub in
         enumerate(map(library.sub_helper_of, range(config.pool_size)))],
        dtype=_np.int64)[index]
    nested = sub_index != index
    helper_fids = _np.asarray(library.helper_fids, dtype=_np.int64)
    helper_sizes = _np.asarray(library.helper_sizes, dtype=_np.int64)
    helper = helper_fids[index]
    last = helper_sizes[index] - 1
    mid = helper_sizes[index] // 2
    sub = helper_fids[sub_index]
    sub_last = helper_sizes[sub_index] - 1

    # ---- output positions: each event's chunks, then its tail ----
    tail_unit = _np.cumsum(calls + 1) - 1
    is_chunk = _np.ones(n + event.size, dtype=bool)
    is_chunk[tail_unit] = False
    chunk_size = _np.where(nested, 8, 4)
    unit_size = _np.ones(n + event.size, dtype=_np.int64)
    unit_size[is_chunk] = chunk_size
    pos = _np.cumsum(unit_size) - unit_size
    chunk_pos = pos[is_chunk]

    total = int(unit_size.sum())
    out_kinds = _np.empty(total, dtype=_np.int8)
    out_a = _np.empty(total, dtype=_np.int64)
    out_b = _np.empty(total, dtype=_np.int64)
    out_c = _np.empty(total, dtype=_np.int64)

    def put(where, kind, ea, eb, ec):
        out_kinds[where] = kind
        out_a[where] = ea
        out_b[where] = eb
        out_c[where] = ec

    put(pos[tail_unit], kinds, a, b + calls * step, c)
    put(chunk_pos, EXEC, fid, cursor, nxt)
    put(chunk_pos + 1, CALL, helper, fid, site)
    put(chunk_pos + 2, EXEC, helper, 0, _np.where(nested, mid, last))
    put(chunk_pos + chunk_size - 1, RET, helper, fid, last)
    two = chunk_pos[nested]
    outer, outer_mid = helper[nested], mid[nested]
    inner, inner_last = sub[nested], sub_last[nested]
    put(two + 3, CALL, inner, outer, outer_mid)
    put(two + 4, EXEC, inner, 0, inner_last)
    put(two + 5, RET, inner, outer, inner_last)
    put(two + 6, EXEC, outer, outer_mid, last[nested])

    out = Trace()
    out.kinds.frombytes(out_kinds.view(_np.uint8))
    out.a.frombytes(out_a.view(_np.uint8))
    out.b.frombytes(out_b.view(_np.uint8))
    out.c.frombytes(out_c.view(_np.uint8))
    return out
