"""Flat-CGHC oracle: the array representation must match the dict cache.

``FlatCghc`` is the state the optimized replay kernels actually mutate;
``CallGraphHistoryCache`` stays the semantic oracle.  These tests pin the
flat probe/allocate/exchange sequence — and the per-entry operations the
kernels inline — to the dict implementation op by op, for finite
geometries and for the unbounded CGHC (one flat set per tag), with the
two-level invariants (no tag resident in both levels, exchange preserves
every entry field) checked after every step.  The hypothesis stream is
biased collision-heavy: an optional mode multiplies every tag by the L1
set count so *all* accesses conflict in L1 and the exchange/writeback
path runs continuously.

``REPRO_FUZZ_EXAMPLES`` bounds the example count, as in the engine fuzz
suite (CI smoke sets a small value).
"""

import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.cghc import CallGraphHistoryCache, FlatCghc
from repro.errors import ConfigError
from repro.uarch.config import CghcConfig
from repro.uarch.fast_engine import (
    _CGHC_SET_CACHE,
    _cghc_set_tables,
    clear_compile_cache,
)

from tests.uarch.test_engine_equivalence import build_layout

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "60"))

FUZZ = settings(max_examples=MAX_EXAMPLES, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: tags the op streams draw from; the unbounded image gets one set each
N_TAGS = 24

# (l1_entries, l2_entries, slots) — includes one-level (l2 == 0), the
# one-set L2 (every victim aliases the hit entry's set), and small slot
# caps so the index parks past the last slot early; ``INFINITE`` is the
# unbounded CGHC
INFINITE = ("infinite",)
GEOMETRIES = [
    (1, 4, 2),
    (1, 1, 2),
    (2, 8, 4),
    (3, 5, 3),
    (4, 16, 8),
    (4, 0, 8),
    INFINITE,
]


def build(l1_entries, l2_entries=0, slots=8):
    if (l1_entries,) == INFINITE:
        return CallGraphHistoryCache(CghcConfig(infinite=True))
    return CallGraphHistoryCache(CghcConfig(
        l1_bytes=l1_entries * 40, l2_bytes=l2_entries * 40, slots=slots))


def level_image(level):
    """Canonical per-set image of a direct-mapped dict level."""
    image = []
    for bucket in level._sets:
        if bucket:
            entry = bucket[-1]
            image.append((entry.tag, entry.index, tuple(entry.seq)))
        else:
            image.append(None)
    return image


def store_image(cghc):
    """Canonical per-set image of an unbounded dict cache: the entry
    for tag ``t`` at set ``t``."""
    image = [None] * N_TAGS
    for tag, entry in cghc._store.items():
        image[tag] = (tag, entry.index, tuple(entry.seq))
    return image


def dict_image(cghc, which=1):
    if cghc.infinite:
        return store_image(cghc)
    return level_image(cghc.l1 if which == 1 else cghc.l2)


def flat_level_image(flat, which):
    tags, idxs, seqs = (
        (flat.l1_tag, flat.l1_idx, flat.l1_seq) if which == 1
        else (flat.l2_tag, flat.l2_idx, flat.l2_seq))
    return [(tag, idxs[s], tuple(seqs[s])) if tag >= 0 else None
            for s, tag in enumerate(tags)]


def check_invariants(flat, cghc):
    """Per-step invariants: residency parity with the oracle and no tag
    in both levels at once."""
    l1_tags = {tag for tag in flat.l1_tag if tag >= 0}
    assert flat_level_image(flat, 1) == dict_image(cghc)
    if flat.n2:
        l2_tags = {tag for tag in flat.l2_tag if tag >= 0}
        assert not (l1_tags & l2_tags)
        assert flat_level_image(flat, 2) == dict_image(cghc, 2)
    assert flat.entry_count() == cghc.entry_count()


# ----------------------------------------------------------------------
# the oracle fuzz
# ----------------------------------------------------------------------

@st.composite
def op_streams(draw):
    """(kind, tag, aux) triples; every op probes its tag first, exactly
    as the kernels do (probe, then act on the resident entry)."""
    ops = []
    for _ in range(draw(st.integers(1, 100))):
        kind = draw(st.sampled_from(
            ["ensure", "ensure", "ensure", "record", "record",
             "reset", "predict", "first"]))
        ops.append((kind, draw(st.integers(0, 23)),
                    draw(st.integers(0, 9))))
    return ops


def run_against_oracle(geometry, ops, collide):
    cghc = build(*geometry)
    mirror = build(*geometry)
    flat = FlatCghc.from_cache(mirror, N_TAGS)
    # parked as a kernel parks it: occupancy reads go to the live image
    mirror._live_flat = flat
    n1 = flat.n1
    for kind, raw, aux in ops:
        # collide mode folds every tag onto L1 set 0: each access is an
        # L1 conflict, so the stream is pure exchange/miss traffic (the
        # unbounded cache has one set per tag: nothing can collide)
        tag = raw * n1 if collide and not cghc.infinite else raw
        l1_before, l2_before = cghc.l1_hits, cghc.l2_hits
        entry, ref_latency = cghc.ensure(tag)
        if cghc.l1_hits != l1_before:
            ref_level = 0
        elif cghc.l2_hits != l2_before:
            ref_level = 1
        else:
            ref_level = 2
        assert flat.ensure(tag) == (ref_latency, ref_level)
        s1 = tag % n1
        if kind == "record":
            entry.record_call(aux, cghc.max_slots)
            flat.record_call(s1, aux)
        elif kind == "reset":
            entry.reset_index()
            flat.reset_index(s1)
        elif kind == "predict":
            assert flat.predicted_next(s1) == entry.predicted_next()
        elif kind == "first":
            assert flat.first_callee(s1) == entry.first_callee()
        check_invariants(flat, cghc)
        assert mirror.entry_count() == cghc.entry_count()
    # the lists must write back to exactly the oracle's dict state, and
    # the counter deltas must fold in exactly once
    mirror._live_flat = None
    flat.write_back(mirror)
    assert dict_image(mirror) == dict_image(cghc)
    if mirror.l2 is not None:
        assert level_image(mirror.l2) == level_image(cghc.l2)
    assert mirror.entry_count() == cghc.entry_count()
    assert (mirror.l1_hits, mirror.l2_hits, mirror.misses) == (
        cghc.l1_hits, cghc.l2_hits, cghc.misses)
    assert (flat.l1_hits, flat.l2_hits, flat.misses) == (0, 0, 0)


#: a function's second invocation overwrites its history from slot 1
#: and predicts from it — a step random op streams rarely line up on
#: one tag
HISTORY_OVERWRITE = [
    ("record", 3, 7), ("record", 3, 8), ("record", 3, 9), ("reset", 3, 0),
    ("predict", 3, 0), ("record", 3, 5), ("predict", 3, 0), ("first", 3, 0),
    ("reset", 3, 0), ("predict", 3, 0),
]


@FUZZ
@given(geometry=st.sampled_from(GEOMETRIES), ops=op_streams(),
       collide=st.booleans())
@example(geometry=(3, 5, 3), ops=HISTORY_OVERWRITE, collide=False)
@example(geometry=INFINITE, ops=HISTORY_OVERWRITE, collide=False)
def test_flat_matches_dict_oracle(geometry, ops, collide):
    run_against_oracle(geometry, ops, collide)


# ----------------------------------------------------------------------
# exchange invariants, pinned deterministically
# ----------------------------------------------------------------------

def test_exchange_preserves_entry_fields():
    """§5.3 exchange: the L2-hit entry's index and sequence move to L1
    intact, and the demoted victim keeps its fields in L2.  With one way
    per set, recency order reduces to residency level — the hit entry
    must be the L1 (MRU) resident afterwards."""
    cghc = build(1, 4, slots=4)
    mirror = build(1, 4, slots=4)
    flat = FlatCghc.from_cache(mirror)
    for c in (7, 8):  # history for tag 0
        cghc.ensure(0)[0].record_call(c, cghc.max_slots)
        flat.ensure(0)
        flat.record_call(0, c)
    cghc.ensure(1)[0].record_call(9, cghc.max_slots)  # demotes tag 0
    flat.ensure(1)
    flat.record_call(0, 9)
    cghc.ensure(0)  # L2 hit: exchange 0 up, 1 down
    latency, level = flat.ensure(0)
    assert level == 1
    assert flat.l1_tag[0] == 0
    assert flat.l1_idx[0] == 3
    assert flat.l1_seq[0] == [7, 8]
    s2 = 1 % flat.n2
    assert flat.l2_tag[s2] == 1
    assert flat.l2_idx[s2] == 2
    assert flat.l2_seq[s2] == [9]
    check_invariants(flat, cghc)


def test_exchange_when_victim_aliases_hit_set():
    """The vacate-first case: the demoted L1 victim maps to the same L2
    set the hit entry occupied.  The hit entry must not be clobbered and
    no tag may end up resident twice."""
    cghc = build(1, 4, slots=4)
    mirror = build(1, 4, slots=4)
    flat = FlatCghc.from_cache(mirror)
    for tag in (0, 4, 0):  # 0 and 4 share L1 set 0 *and* L2 set 0
        cghc.ensure(tag)
        flat.ensure(tag)
    assert flat.l1_tag[0] == 0
    assert flat.l2_tag[0] == 4
    assert flat.entry_count() == 2
    check_invariants(flat, cghc)


def test_one_set_l2_exchange():
    """n2 == 1: every demotion lands where the hit came from."""
    cghc = build(1, 1, slots=2)
    mirror = build(1, 1, slots=2)
    flat = FlatCghc.from_cache(mirror)
    for tag in (0, 1, 2, 0, 1):
        l1_before, l2_before = cghc.l1_hits, cghc.l2_hits
        cghc.ensure(tag)
        if cghc.l1_hits != l1_before:
            want = 0
        elif cghc.l2_hits != l2_before:
            want = 1
        else:
            want = 2
        assert flat.ensure(tag)[1] == want
        check_invariants(flat, cghc)


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------

def test_round_trip_is_identity():
    """from_cache -> write_back with no accesses must be a no-op: same
    residency images, counters untouched."""
    cghc = build(2, 8, slots=4)
    for tag, callee in ((0, 3), (1, 4), (2, 5), (9, 6)):
        cghc.ensure(tag)[0].record_call(callee, cghc.max_slots)
    before = (level_image(cghc.l1), level_image(cghc.l2),
              cghc.l1_hits, cghc.l2_hits, cghc.misses)
    FlatCghc.from_cache(cghc).write_back(cghc)
    after = (level_image(cghc.l1), level_image(cghc.l2),
             cghc.l1_hits, cghc.l2_hits, cghc.misses)
    assert after == before


def test_boundaries_copy_sequences():
    """Neither boundary aliases a callee sequence: kernel writes never
    reach the entries a snapshot took, and the written-back entries
    never change when the flat image does."""
    for geometry in ((2, 8, 4), INFINITE):
        cghc = build(*geometry)
        cghc.ensure(1)[0].record_call(5, cghc.max_slots)
        flat = FlatCghc.from_cache(cghc, N_TAGS)
        flat.record_call(1 % flat.n1, 6)
        assert cghc.ensure(1)[0].seq == [5]
        flat.write_back(cghc)
        flat.record_call(1 % flat.n1, 7)
        assert cghc.ensure(1)[0].seq == [5, 6]


def test_from_cache_rejects_unsupported_shapes():
    with pytest.raises(ConfigError):
        FlatCghc.from_cache(CallGraphHistoryCache(
            CghcConfig(l1_bytes=4 * 40, l2_bytes=16 * 40, assoc=2)))
    unbounded = build(*INFINITE)
    with pytest.raises(ConfigError):
        FlatCghc.from_cache(unbounded)  # no tag bound
    unbounded.ensure(N_TAGS)
    with pytest.raises(ConfigError):
        FlatCghc.from_cache(unbounded, N_TAGS)  # a tag past the bound


def test_live_flat_serves_mid_kernel_occupancy():
    """While a kernel holds the state flat it parks the image on the
    cache; ``entry_count`` (the interval sampler's occupancy read) must
    report the *live* arrays, not the stale dict buckets."""
    cghc = build(2, 8)
    cghc.ensure(0)
    cghc.ensure(1)
    flat = FlatCghc.from_cache(cghc)
    cghc._live_flat = flat
    try:
        flat.ensure(5)  # mutates only the arrays
        assert cghc.entry_count() == flat.entry_count() == 3
    finally:
        cghc._live_flat = None
    assert cghc.entry_count() == 2  # dict view again, still pre-writeback


# ----------------------------------------------------------------------
# compiled set tables
# ----------------------------------------------------------------------

def test_clear_compile_cache_drops_cghc_set_tables():
    """Layout swaps must never read stale compiled tables: tables are
    keyed per layout and rebuilt from the live layout after
    ``clear_compile_cache()``."""
    ident = build_layout("identity")
    scram = build_layout("scrambled")
    t_ident = _cghc_set_tables(ident, 4, 16)
    t_scram = _cghc_set_tables(scram, 4, 16)
    assert t_ident[0] == [line % 4 for line in ident.base_line]
    assert t_ident[1] == [line % 16 for line in ident.base_line]
    assert t_scram[0] == [line % 4 for line in scram.base_line]
    # equal geometry, different layouts: never shared
    assert t_ident is not t_scram
    # memoized per (layout, geometry)
    assert _cghc_set_tables(ident, 4, 16) is t_ident
    assert _cghc_set_tables(ident, 4, 0)[1] is None
    clear_compile_cache()
    assert len(_CGHC_SET_CACHE) == 0
    fresh = _cghc_set_tables(ident, 4, 16)
    assert fresh is not t_ident  # rebuilt, not served stale
    assert fresh[0] == t_ident[0] and fresh[1] == t_ident[1]
