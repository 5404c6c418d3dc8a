"""Set-associative cache model (LRU), line-address granular.

Addresses handled by the simulator are already cache-line numbers (always
non-negative), so this model never sees byte addresses.

Storage is a single flat list of ``n_sets * assoc`` way slots.  Within a
set the slots are ordered LRU -> MRU, with ``-1`` marking empty ways
(empties sit at the LRU end, so a not-yet-full set never evicts).  A hit
rotates the line to the MRU slot with a short in-place shift; an insert
into a full set evicts the line in the set's first slot.  The flat layout
has no per-set list objects to allocate or search, and the optimized
fetch engine indexes ``ways`` directly for its inlined hit path — the
semantics (hit/miss sequence, eviction order) are exactly those of the
old list-per-set model.
"""

from __future__ import annotations

from repro.errors import SimulationError

#: Empty-way sentinel; line addresses are non-negative by construction.
EMPTY_WAY = -1


class SetAssocCache:
    """An LRU set-associative cache of (non-negative) line addresses."""

    __slots__ = ("n_sets", "assoc", "ways", "hits", "misses")

    def __init__(self, n_sets, assoc):
        if n_sets <= 0 or assoc <= 0:
            raise SimulationError("cache geometry must be positive")
        self.n_sets = n_sets
        self.assoc = assoc
        self.ways = [EMPTY_WAY] * (n_sets * assoc)
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_config(cls, config):
        return cls(config.n_sets, config.assoc)

    def lookup(self, line):
        """True (and LRU update) if ``line`` is present."""
        assoc = self.assoc
        base = (line % self.n_sets) * assoc
        top = base + assoc - 1
        ways = self.ways
        if ways[top] == line:  # already MRU
            self.hits += 1
            return True
        p = top - 1
        while p >= base:
            if ways[p] == line:
                while p < top:
                    ways[p] = ways[p + 1]
                    p += 1
                ways[top] = line
                self.hits += 1
                return True
            p -= 1
        self.misses += 1
        return False

    def contains(self, line):
        """Presence test without LRU update or stats."""
        base = (line % self.n_sets) * self.assoc
        ways = self.ways
        for p in range(base, base + self.assoc):
            if ways[p] == line:
                return True
        return False

    def insert(self, line):
        """Install ``line``; returns the evicted line or None."""
        assoc = self.assoc
        base = (line % self.n_sets) * assoc
        top = base + assoc - 1
        ways = self.ways
        if ways[top] == line:
            return None
        p = top - 1
        while p >= base:
            if ways[p] == line:  # refresh to MRU, no eviction
                while p < top:
                    ways[p] = ways[p + 1]
                    p += 1
                ways[top] = line
                return None
            p -= 1
        victim = ways[base]
        p = base
        while p < top:
            ways[p] = ways[p + 1]
            p += 1
        ways[top] = line
        return victim if victim != EMPTY_WAY else None

    def invalidate(self, line):
        """Drop ``line`` if present; returns True if it was."""
        base = (line % self.n_sets) * self.assoc
        top = base + self.assoc - 1
        ways = self.ways
        p = top
        while p >= base:
            if ways[p] == line:
                while p > base:
                    ways[p] = ways[p - 1]
                    p -= 1
                ways[base] = EMPTY_WAY
                return True
            p -= 1
        return False

    def resident_lines(self):
        """All lines currently cached, per set in LRU->MRU order."""
        return [line for line in self.ways if line != EMPTY_WAY]

    def flush(self):
        ways = self.ways
        for p in range(len(ways)):
            ways[p] = EMPTY_WAY
