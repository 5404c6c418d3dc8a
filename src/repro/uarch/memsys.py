"""L2 + memory timing behind a FIFO port.

§3.3: "The traffic generated by the prefetches and the L1 cache misses
are serviced by L2 in FIFO order without giving any priority to the
demand miss traffic."  One port serializes all requests; each occupies
the port for ``l2_port_occupancy`` cycles, so a burst of prefetches
delays a following demand miss — this is what makes useless prefetches
cost real cycles.
"""

from __future__ import annotations

from repro.uarch.cache import SetAssocCache


class MemorySystem:
    """Unified L2 cache + memory, fronted by a FIFO port."""

    def __init__(self, config):
        self.l2 = SetAssocCache.from_config(config.l2)
        self._hit_latency = config.l2_hit_latency
        self._memory_latency = config.memory_latency
        self._occupancy = config.l2_port_occupancy
        self._demand_priority = getattr(config, "l2_demand_priority", False)
        self._port_free_at = 0.0
        self._demand_free_at = 0.0
        self.l2_hits = 0
        self.l2_misses = 0
        self.transactions = 0

    def request(self, line, now, is_prefetch=False):
        """Issue one line fill request at time ``now``.

        Returns ``(completion_time, from_memory)``.  The request waits for
        the FIFO port, then takes the L2 hit latency, plus the memory
        latency on an L2 miss (the line is installed in L2).

        With ``l2_demand_priority`` (an ablation; the paper's design is
        strict FIFO, §3.3) demand misses bypass queued prefetches and
        only serialize among themselves.
        """
        if self._demand_priority and not is_prefetch:
            start = now if now > self._demand_free_at else self._demand_free_at
            self._demand_free_at = start + self._occupancy
            if start + self._occupancy > self._port_free_at:
                self._port_free_at = start + self._occupancy
        else:
            start = now if now > self._port_free_at else self._port_free_at
            free_at = start + self._occupancy
            self._port_free_at = free_at
            if not self._demand_priority:
                self._demand_free_at = free_at
        self.transactions += 1
        # inlined l2.lookup (MRU check, then scan-and-promote): request is
        # on the demand-miss and prefetch-issue hot paths
        l2 = self.l2
        ways = l2.ways
        assoc = l2.assoc
        base = (line % l2.n_sets) * assoc
        top = base + assoc - 1
        if ways[top] == line:
            l2.hits += 1
            self.l2_hits += 1
            return start + self._hit_latency, False
        w = top - 1
        while w >= base:
            if ways[w] == line:
                while w < top:
                    ways[w] = ways[w + 1]
                    w += 1
                ways[top] = line
                l2.hits += 1
                self.l2_hits += 1
                return start + self._hit_latency, False
            w -= 1
        l2.misses += 1
        self.l2_misses += 1
        l2.insert(line)
        return start + self._hit_latency + self._memory_latency, True

    @property
    def port_free_at(self):
        return self._port_free_at
