"""The Call Graph History Cache (§3.2) — the paper's core structure.

Each entry is keyed by a function's starting address and stores:

* ``index`` — 1-based slot pointer into the callee sequence; initialized
  to 1 when the entry is created, incremented on each call update (up to
  one past the slot capacity), and reset to 1 when the function returns;
* ``seq`` — the sequence of starting addresses of the functions called
  during the function's most recent invocation (up to 8 slots in the
  finite configurations; unbounded in the infinite CGHC).

The finite CGHC is direct mapped (the paper found set associativity
unnecessary).  The two-level variant mirrors the two-level cache
hierarchy: a hit in the second level *swaps* the entry with the first
level's resident entry; a miss in both allocates in the first level and
writes the displaced entry back to the second.

Callee identities are stored as function ids (each function id maps 1:1
to a start address under a fixed layout); tags are start-line addresses,
exactly as the hardware would hold them.
"""

from __future__ import annotations

import sys

from repro.errors import ConfigError


class CghcEntry:
    """One CGHC entry (tag + index + callee sequence)."""

    __slots__ = ("tag", "index", "seq")

    def __init__(self, tag):
        self.tag = tag
        self.index = 1
        self.seq = []

    def clone(self):
        dup = CghcEntry.__new__(CghcEntry)
        dup.tag = self.tag
        dup.index = self.index
        dup.seq = self.seq[:]
        return dup

    def record_call(self, callee_fid, max_slots):
        """Call-update access: store the callee at the slot the index
        points to, then advance the index (§3.2)."""
        slot = self.index - 1
        if max_slots is not None and slot >= max_slots:
            return  # only the first ``max_slots`` callees are kept
        if slot < len(self.seq):
            self.seq[slot] = callee_fid
        else:
            # index never skips, so slot == len(seq) here
            self.seq.append(callee_fid)
        limit = max_slots + 1 if max_slots is not None else self.index + 1
        self.index = min(self.index + 1, limit)

    def predicted_next(self):
        """The callee the index points at (return-prefetch access)."""
        slot = self.index - 1
        if 0 <= slot < len(self.seq):
            return self.seq[slot]
        return None

    def first_callee(self):
        """Slot 1 (call-prefetch access: a just-called function's index
        should be 1)."""
        return self.seq[0] if self.seq else None

    def reset_index(self):
        self.index = 1


class DirectMappedCghc:
    """One level of finite CGHC.

    Direct mapped by default (the paper found associativity unnecessary,
    §3.2); ``ways > 1`` builds a set-associative level with LRU within
    each set — used by the associativity ablation to verify that claim.
    """

    def __init__(self, n_entries, max_slots=8, ways=1):
        if n_entries <= 0 or ways <= 0:
            raise ConfigError("CGHC needs at least one entry and one way")
        self.n_entries = n_entries
        self.max_slots = max_slots
        self.ways = ways
        self.n_sets = max(1, n_entries // ways)
        self._sets = [[] for _ in range(self.n_sets)]

    def set_of(self, tag):
        return tag % self.n_sets

    def probe(self, tag):
        """Return the entry on a tag hit (LRU refresh), else None."""
        bucket = self._sets[tag % self.n_sets]
        if not bucket:
            return None
        entry = bucket[-1]  # MRU first: direct-mapped levels hit here
        if entry.tag == tag:
            return entry
        for i in range(len(bucket) - 2, -1, -1):
            entry = bucket[i]
            if entry.tag == tag:
                del bucket[i]
                bucket.append(entry)
                return entry
        return None

    def remove(self, tag):
        """Drop and return the entry with ``tag`` if present."""
        bucket = self._sets[tag % self.n_sets]
        for i, entry in enumerate(bucket):
            if entry.tag == tag:
                del bucket[i]
                return entry
        return None

    def install(self, entry):
        """Place ``entry`` in its set; returns the displaced entry."""
        bucket = self._sets[entry.tag % self.n_sets]
        victim = None
        for i, existing in enumerate(bucket):
            if existing.tag == entry.tag:
                victim = existing
                del bucket[i]
                break
        if victim is None and len(bucket) >= self.ways:
            victim = bucket.pop(0)
        bucket.append(entry)
        return victim

    def entry_count(self):
        return sum(len(bucket) for bucket in self._sets)

    def clone(self):
        """Independent copy (compact-snapshot path; no deepcopy)."""
        dup = DirectMappedCghc.__new__(DirectMappedCghc)
        dup.n_entries = self.n_entries
        dup.max_slots = self.max_slots
        dup.ways = self.ways
        dup.n_sets = self.n_sets
        dup._sets = [
            [entry.clone() for entry in bucket] for bucket in self._sets
        ]
        return dup


class FlatCghc:
    """Flat-array image of a direct-mapped CGHC: finite (one or two
    levels) or unbounded.

    The optimized replay core cannot afford the dict-and-object
    representation on its per-event path: every CGHC access chases
    ``_sets`` list -> bucket list -> entry attributes, and every
    miss/exchange allocates and shuffles Python objects.  This class
    holds the *same* state as :class:`CallGraphHistoryCache` (ways == 1
    only — the paper's configuration) in parallel per-set lists:

    * ``l1_tag[s]`` / ``l2_tag[s]`` — resident tag per set, ``-1`` empty,
    * ``l1_idx[s]`` / ``l2_idx[s]`` — the entry's 1-based slot index,
    * ``l1_seq[s]`` / ``l2_seq[s]`` — the entry's callee sequence, one
      list per set (an exchange swaps list references).

    The unbounded CGHC is the one-level form with one set per possible
    tag and no slot cap: tags are function entry lines, so with
    ``n1 = layout.total_lines`` no two tags share a set and a miss never
    has a victim.

    The replay kernels flatten the dict cache at kernel entry
    (:meth:`from_cache`), probe/update the lists inline, and write the
    state back (:meth:`write_back`) before the kernel returns — so the
    dict cache stays the canonical representation wherever engine state
    is observed (``EngineState`` snapshots, ``_finalize``, tests), and
    the reference :class:`CallGraphHistoryCache` remains the semantic
    oracle.  Both boundaries copy the sequences, so no snapshot aliases
    kernel state.  Hit/miss counters accumulate here as *deltas* and are
    added to the dict cache's totals by ``write_back``.

    :meth:`ensure` is the reference implementation of the flattened
    probe/allocate/exchange sequence the kernels inline — the
    equivalence and flat-vs-dict oracle suites pin both to
    ``CallGraphHistoryCache.ensure``.
    """

    __slots__ = (
        "n1", "n2", "slots", "lat1", "lat2",
        "l1_tag", "l1_idx", "l1_seq",
        "l2_tag", "l2_idx", "l2_seq",
        "l1_hits", "l2_hits", "misses",
    )

    @classmethod
    def from_cache(cls, cghc, n_tags=None):
        """Flatten a dict-represented, direct-mapped cache.  An unbounded
        cache needs ``n_tags``, one more than the largest tag it may
        hold (the replayed layout's ``total_lines``)."""
        flat = cls.__new__(cls)
        flat.lat1 = cghc.config.l1_latency
        flat.lat2 = cghc.config.l2_latency
        flat.l1_hits = 0
        flat.l2_hits = 0
        flat.misses = 0
        flat.n2 = 0
        flat.l2_tag = flat.l2_idx = flat.l2_seq = None
        if cghc.infinite:
            if n_tags is None:
                raise ConfigError("an unbounded flat CGHC needs n_tags")
            flat.slots = sys.maxsize
            flat.n1 = n_tags
            tags = [-1] * n_tags
            idxs = [1] * n_tags
            seqs = [None] * n_tags
            for tag, entry in cghc._store.items():
                if not 0 <= tag < n_tags:
                    raise ConfigError(f"CGHC tag {tag} outside [0, {n_tags})")
                tags[tag] = tag
                idxs[tag] = entry.index
                seqs[tag] = entry.seq[:]
            flat.l1_tag, flat.l1_idx, flat.l1_seq = tags, idxs, seqs
            return flat
        if cghc.l1.ways != 1:
            raise ConfigError("flat CGHC supports direct-mapped levels only")
        flat.slots = cghc.max_slots
        flat.n1 = cghc.l1.n_sets
        flat.l1_tag, flat.l1_idx, flat.l1_seq = cls._load_level(cghc.l1)
        if cghc.l2 is not None:
            flat.n2 = cghc.l2.n_sets
            flat.l2_tag, flat.l2_idx, flat.l2_seq = cls._load_level(cghc.l2)
        return flat

    def write_back(self, cghc):
        """Rebuild the dict cache's entries from the lists and add the
        accumulated counter deltas to its totals."""
        if cghc.infinite:
            idxs = self.l1_idx
            seqs = self.l1_seq
            cghc._store = {
                tag: self._entry(tag, idxs[tag], seqs[tag])
                for tag in self.l1_tag if tag >= 0
            }
        else:
            self._store_level(cghc.l1, self.l1_tag, self.l1_idx,
                              self.l1_seq)
            if self.n2:
                self._store_level(cghc.l2, self.l2_tag, self.l2_idx,
                                  self.l2_seq)
        cghc.l1_hits += self.l1_hits
        cghc.l2_hits += self.l2_hits
        cghc.misses += self.misses
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # access (the sequence the replay kernels inline)
    # ------------------------------------------------------------------
    def ensure(self, tag):
        """Flat transcription of ``CallGraphHistoryCache.ensure``.

        Returns ``(latency, level)`` with level 0 (first-level hit),
        1 (second-level hit, entry exchanged up), or 2 (miss, fresh
        entry allocated in L1 with the victim written back to L2).
        After any call the entry for ``tag`` is resident at L1 set
        ``tag % n1``.
        """
        s1 = tag % self.n1
        l1_tag = self.l1_tag
        if l1_tag[s1] == tag:
            self.l1_hits += 1
            return self.lat1, 0
        l1_idx = self.l1_idx
        l1_seq = self.l1_seq
        victim = l1_tag[s1]
        if self.n2:
            l2_tag = self.l2_tag
            l2_idx = self.l2_idx
            l2_seq = self.l2_seq
            s2 = tag % self.n2
            if l2_tag[s2] == tag:
                # second-level hit: the §5.3 exchange.  Save the hit
                # entry, vacate its L2 slot *first* (the displaced L1
                # entry may map to the same slot), demote the L1
                # resident, install the hit entry in L1.
                self.l2_hits += 1
                hit_idx = l2_idx[s2]
                hit_seq = l2_seq[s2]
                l2_tag[s2] = -1
                if victim >= 0:
                    vs = victim % self.n2
                    l2_tag[vs] = victim
                    l2_idx[vs] = l1_idx[s1]
                    l2_seq[vs] = l1_seq[s1]
                l1_tag[s1] = tag
                l1_idx[s1] = hit_idx
                l1_seq[s1] = hit_seq
                return self.lat2, 1
            # miss in both levels: allocate fresh in L1, write the
            # displaced entry back to L2 (overwriting that set's
            # resident, exactly as ``l2.install`` would evict it)
            self.misses += 1
            if victim >= 0:
                vs = victim % self.n2
                l2_tag[vs] = victim
                l2_idx[vs] = l1_idx[s1]
                l2_seq[vs] = l1_seq[s1]
            l1_tag[s1] = tag
            l1_idx[s1] = 1
            l1_seq[s1] = []
            return self.lat2, 2
        # one-level cache: the direct-mapped victim (never one when
        # unbounded) is simply dropped
        self.misses += 1
        l1_tag[s1] = tag
        l1_idx[s1] = 1
        l1_seq[s1] = []
        return self.lat1, 2

    # ------------------------------------------------------------------
    # entry operations (the resident entry at L1 set ``s1``)
    # ------------------------------------------------------------------
    def record_call(self, s1, callee):
        """``CghcEntry.record_call`` on the L1-resident entry."""
        slot = self.l1_idx[s1] - 1
        if slot < self.slots:
            seq = self.l1_seq[s1]
            if slot < len(seq):
                seq[slot] = callee
            else:
                seq.append(callee)
            self.l1_idx[s1] = slot + 2

    def predicted_next(self, s1):
        slot = self.l1_idx[s1] - 1
        seq = self.l1_seq[s1]
        if slot < len(seq):
            return seq[slot]
        return None

    def first_callee(self, s1):
        seq = self.l1_seq[s1]
        return seq[0] if seq else None

    def reset_index(self, s1):
        self.l1_idx[s1] = 1

    # ------------------------------------------------------------------
    # dict <-> list conversion
    # ------------------------------------------------------------------
    @staticmethod
    def _load_level(level):
        """One direct-mapped level's (tags, indices, sequences) lists."""
        n = level.n_sets
        tags = [-1] * n
        idxs = [1] * n
        seqs = [None] * n
        for s, bucket in enumerate(level._sets):
            if bucket:
                entry = bucket[-1]
                tags[s] = entry.tag
                idxs[s] = entry.index
                seqs[s] = entry.seq[:]
        return tags, idxs, seqs

    @staticmethod
    def _entry(tag, index, seq):
        entry = CghcEntry.__new__(CghcEntry)
        entry.tag = tag
        entry.index = index
        entry.seq = seq[:]
        return entry

    @classmethod
    def _store_level(cls, level, tags, idxs, seqs):
        level._sets[:] = [
            [cls._entry(tag, idxs[s], seqs[s])] if tag >= 0 else []
            for s, tag in enumerate(tags)
        ]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def entry_count(self):
        total = self.n1 - self.l1_tag.count(-1)
        if self.n2:
            total += self.n2 - self.l2_tag.count(-1)
        return total


class CallGraphHistoryCache:
    """The full CGHC: one or two levels, or infinite.

    ``lookup`` returns ``(entry_or_None, access_latency)``;
    ``ensure`` additionally allocates on a miss.
    """

    #: While a replay kernel holds this cache's state in a
    #: :class:`FlatCghc` image, the dict representation is stale; the
    #: kernel parks the live image here so mid-run observers (the
    #: interval sampler's occupancy series) read current state.  Always
    #: ``None`` outside a kernel.
    _live_flat = None

    def __init__(self, config):
        self.config = config
        self.infinite = config.infinite
        self.max_slots = None if config.infinite else config.slots
        if config.infinite:
            self._store = {}
            self.l1 = None
            self.l2 = None
        else:
            self._store = None
            ways = getattr(config, "assoc", 1)
            self.l1 = DirectMappedCghc(config.l1_entries(), config.slots, ways)
            self.l2 = (
                DirectMappedCghc(config.l2_entries(), config.slots, ways)
                if config.l2_bytes
                else None
            )
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def lookup(self, tag):
        if self.infinite:
            entry = self._store.get(tag)
            if entry is None:
                self.misses += 1
                return None, self.config.l1_latency
            self.l1_hits += 1
            return entry, self.config.l1_latency

        entry = self.l1.probe(tag)
        if entry is not None:
            self.l1_hits += 1
            return entry, self.config.l1_latency
        if self.l2 is not None:
            entry = self.l2.probe(tag)
            if entry is not None:
                self.l2_hits += 1
                self._swap_up(entry)
                return entry, self.config.l2_latency
        self.misses += 1
        latency = (
            self.config.l2_latency if self.l2 is not None else self.config.l1_latency
        )
        return None, latency

    def ensure(self, tag):
        """Lookup, allocating a fresh entry on a miss.

        The first-level probe is inlined: ``ensure`` sits on the CGP
        call/return hot path (two accesses per predicted call and per
        predicted return), and the overwhelming majority of accesses hit
        the direct-mapped first level's single resident entry.
        """
        if not self.infinite:
            l1 = self.l1
            bucket = l1._sets[tag % l1.n_sets]
            if bucket:
                entry = bucket[-1]
                if entry.tag == tag:
                    self.l1_hits += 1
                    return entry, self.config.l1_latency
                for i in range(len(bucket) - 2, -1, -1):
                    entry = bucket[i]
                    if entry.tag == tag:
                        del bucket[i]
                        bucket.append(entry)
                        self.l1_hits += 1
                        return entry, self.config.l1_latency
        entry, latency = self.lookup(tag)
        if entry is not None:
            return entry, latency
        entry = CghcEntry(tag)
        if self.infinite:
            self._store[tag] = entry
        else:
            victim = self.l1.install(entry)
            if victim is not None and self.l2 is not None:
                self.l2.install(victim)
        return entry, latency

    def _swap_up(self, entry):
        """Move an L2-hit entry into L1, displacing the L1 resident into
        L2 (§5.3's two-level exchange)."""
        # vacate the entry's old L2 slot first so it is never duplicated
        self.l2.remove(entry.tag)
        victim = self.l1.install(entry)
        if victim is not None:
            self.l2.install(victim)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def entry_count(self):
        flat = self._live_flat
        if flat is not None:
            return flat.entry_count()
        if self.infinite:
            return len(self._store)
        total = self.l1.entry_count()
        if self.l2 is not None:
            total += self.l2.entry_count()
        return total

    def clone(self):
        """Independent copy for compact warm-start snapshots.  Must not
        be called while a kernel holds the state flat (``_live_flat``);
        snapshots are only taken at kernel boundaries, where the dict
        representation is canonical."""
        dup = CallGraphHistoryCache.__new__(CallGraphHistoryCache)
        dup.config = self.config
        dup.infinite = self.infinite
        dup.max_slots = self.max_slots
        if self.infinite:
            dup._store = {
                tag: entry.clone() for tag, entry in self._store.items()
            }
            dup.l1 = None
            dup.l2 = None
        else:
            dup._store = None
            dup.l1 = self.l1.clone()
            dup.l2 = self.l2.clone() if self.l2 is not None else None
        dup.l1_hits = self.l1_hits
        dup.l2_hits = self.l2_hits
        dup.misses = self.misses
        return dup
