"""Address layouts: O5 vs OM binaries as pure address transforms.

The same trace (function ids + intra-function instruction offsets) is
replayed under different *address maps*, exactly as the paper runs the
same program compiled two ways.  An address map models the three layout
properties that matter to I-cache behaviour:

* **function order** — O5 uses an arbitrary (link-order) sequence; OM
  uses Pettis–Hansen closest-is-best order from a profile (§5.1 level 2).
* **intra-function sequentiality** — compiled code takes a branch every
  few instructions; the hot path is *not* laid out contiguously unless a
  feedback-directed pass straightens it.  Each function's cache-line
  blocks are permuted with a per-function deterministic shuffle;
  ``sequentiality`` is the fraction of blocks left in fall-through
  position (O5 low, OM high — §5.1 level 1: "conditional branches are
  most likely not taken ... increases the average number of instructions
  executed between two taken branches").  Block 0 (the entry) is always
  in place, which is what lets CGP prefetch "the first N lines" of a
  function usefully.
* **code inflation** — O5 binaries interleave cold basic blocks with the
  hot path, spreading hot offsets over more lines; OM's layout compacts
  them (inflation 1.0).

OM additionally executes 12% fewer dynamic instructions (OM's link-time
re-optimizations, §5.1): ``instr_scale`` = 0.88.

Addresses are in units of 32-byte cache lines (8 virtual instructions).
"""

from __future__ import annotations

import random
import zlib
from array import array

from repro.errors import LayoutError
from repro.layout.pettis_hansen import pettis_hansen_order

INSTRS_PER_LINE = 8
O5_INFLATION = 1.10
OM_INFLATION = 1.0
O5_SEQUENTIALITY = 0.72
OM_SEQUENTIALITY = 0.90
OM_INSTR_SCALE = 0.88


class AddressMap:
    """Maps (fid, instruction offset) -> cache line address.

    The fetch engine inlines the mapping arithmetic using the exported
    arrays (``base_line``, ``perm``, ``num``, ``den``) for speed:
    ``line = base_line[fid] + perm[fid][(offset * num) // den]``.
    """

    def __init__(self, image, order, inflation, sequentiality, instr_scale,
                 name, seed=7):
        if inflation < 1.0:
            raise LayoutError("inflation must be >= 1.0")
        if not 0.0 <= sequentiality <= 1.0:
            raise LayoutError("sequentiality must be in [0, 1]")
        self.name = name
        self.instr_scale = float(instr_scale)
        self.sequentiality = sequentiality
        # integer inflation arithmetic: block index = off * num // den
        self.num = int(round(inflation * 64))
        self.den = 64 * INSTRS_PER_LINE
        n = image.function_count
        self.base_line = [0] * n
        self.size_lines = [0] * n
        self.perm = [None] * n
        self.order = list(order)
        if sorted(self.order) != list(range(n)):
            raise LayoutError("order must be a permutation of all fids")
        cursor = 0
        rng = random.Random(seed)
        for fid in self.order:
            info = image.info(fid)
            span = (info.size_instrs * self.num) // self.den + 1
            self.base_line[fid] = cursor
            self.size_lines[fid] = span
            self.perm[fid] = _block_permutation(span, sequentiality, rng)
            cursor += span
        self.total_lines = cursor
        self._flat_translation = None  # built lazily by translation_table()
        self._head_extents = {}  # n_lines -> array, built by head_extents()

    def line_of(self, fid, offset_instr):
        """Cache line address of an instruction offset inside ``fid``."""
        block = (offset_instr * self.num) // self.den
        return self.base_line[fid] + self.perm[fid][block]

    def translation_table(self):
        """Flat precomputed block -> global line translation.

        Returns ``(table, block_base)`` — two Python lists with, for
        every function ``fid`` and block index ``k < size_lines[fid]``::

            table[block_base[fid] + k] == base_line[fid] + perm[fid][k]

        so the lines of an instruction range whose blocks run from
        ``first`` to ``last`` are the slice
        ``table[block_base[fid] + first : block_base[fid] + last + 1]``.
        The optimized replay core compiles each distinct EXEC record
        to such a span, copied into the record as a tuple of the
        table's ints, which are already boxed.  Built lazily once per
        layout (O(total_lines)) and cached, so every compile for the
        layout reads one table.
        """
        cached = self._flat_translation
        if cached is None:
            table = []
            block_base = []
            for base, perm in zip(self.base_line, self.perm):
                block_base.append(len(table))
                table.extend([base + block for block in perm])
            cached = self._flat_translation = (table, block_base)
        return cached

    def head_extents(self, n_lines):
        """Per-function end line of an ``n_lines`` head-prefetch window.

        Returns a contiguous int64 array ``end`` with, for every
        ``fid``::

            end[fid] == base_line[fid] + min(n_lines, size_lines[fid])

        so a CGP/CGHC head prefetch for ``fid`` targets exactly the
        span ``[base_line[fid], end[fid])`` — the ``min`` clamp is
        folded in here, at table-build time, and the replay core's
        head-prefetch resolution becomes two table lookups plus one
        range scan.  Built lazily once per (layout, ``n_lines``) and
        cached.
        """
        ends = self._head_extents.get(n_lines)
        if ends is None:
            ends = self._head_extents[n_lines] = array("q", [
                base + (n_lines if n_lines < span else span)
                for base, span in zip(self.base_line, self.size_lines)
            ])
        return ends

    def entry_line(self, fid):
        """A function's entry is always its first line (block 0 pinned)."""
        return self.base_line[fid]

    def extent(self, fid):
        """(first line, line count) of the function's body."""
        return self.base_line[fid], self.size_lines[fid]

    def footprint_bytes(self):
        return self.total_lines * 32

    def __repr__(self):
        return (
            f"AddressMap({self.name}, {len(self.base_line)} functions, "
            f"{self.footprint_bytes() // 1024}KB, seq={self.sequentiality})"
        )


def _block_permutation(span, sequentiality, rng):
    """Permute a function's blocks, keeping ``sequentiality`` of them in
    fall-through position and pinning the entry block."""
    perm = list(range(span))
    if span <= 2 or sequentiality >= 1.0:
        return perm
    movable = [
        k for k in range(1, span) if rng.random() >= sequentiality
    ]
    if len(movable) >= 2:
        targets = movable[:]
        for i in range(len(targets) - 1, 0, -1):
            j = rng.randrange(i + 1)
            targets[i], targets[j] = targets[j], targets[i]
        for position, target in zip(movable, targets):
            perm[position] = target
    return perm


def link_order(image):
    """O5's arbitrary-but-deterministic function order (link order)."""
    return sorted(
        range(image.function_count),
        key=lambda fid: (zlib.crc32(image.name_of(fid).encode("utf-8")), fid),
    )


def o5_layout(image, inflation=O5_INFLATION, sequentiality=O5_SEQUENTIALITY):
    """The O5-optimized binary: no profile feedback."""
    return AddressMap(
        image, link_order(image), inflation, sequentiality, 1.0, "O5"
    )


def om_layout(image, profile, inflation=OM_INFLATION,
              sequentiality=OM_SEQUENTIALITY, instr_scale=OM_INSTR_SCALE):
    """The OM binary: profile-directed layout (both OM levels)."""
    order = pettis_hansen_order(range(image.function_count), profile.edge_counts)
    return AddressMap(
        image, order, inflation, sequentiality, instr_scale, "O5+OM"
    )
