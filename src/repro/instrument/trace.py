"""Instruction trace containers.

A trace is a sequence of events in compact parallel integer arrays
(``array('b')`` for the kind, ``array('q')`` for the three operands —
contiguous C buffers, so the optimized replay core can take zero-copy
``numpy`` views over them):

* ``EXEC  (fid, from_offset, to_offset)`` — straight-line progress inside
  a function, in virtual instruction offsets (either direction; a
  backwards delta is a loop back-edge),
* ``CALL  (callee_fid, caller_fid, callsite_offset)`` — a call,
* ``RET   (fid, caller_fid, return_offset)`` — a return from ``fid``,
* ``SWITCH (tid, 0, 0)`` — context switch marker (multiprogrammed mixes).

Traces are layout independent: they carry function ids and offsets, never
addresses.

Building stays append-friendly: the ``add_*`` methods (and direct
``.append``/``.extend`` on the parallel arrays, which several producers
use for speed) are plain amortized-O(1) appends.  Aggregates
(``counts()``, ``call_count()``, ``total_instructions()``) are numpy
passes over the whole arrays on each query.

Persistence is a versioned binary format (magic, format version, event
count, raw little-endian array payloads, CRC-32) — see :meth:`Trace.save`.
Truncated, corrupted, or wrong-version files raise
:class:`~repro.errors.TraceError` instead of executing arbitrary pickle.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array

import numpy as _np

from repro.errors import TraceError

EXEC = 0
CALL = 1
RET = 2
SWITCH = 3

_KIND_NAMES = {EXEC: "EXEC", CALL: "CALL", RET: "RET", SWITCH: "SWITCH"}

#: On-disk trace format (see Trace.save): magic, u16 version, u16 flags,
#: u64 event count, then kinds (i8) and a/b/c (i64 LE), then u32 CRC-32
#: of the four payloads.
TRACE_MAGIC = b"RTRC"
TRACE_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")
_CRC = struct.Struct("<I")

_KIND_TYPECODE = "b"
_FIELD_TYPECODE = "q"


class Trace:
    """Append-only event trace (parallel arrays)."""

    __slots__ = ("kinds", "a", "b", "c", "__weakref__")

    def __init__(self):
        self.kinds = array(_KIND_TYPECODE)
        self.a = array(_FIELD_TYPECODE)
        self.b = array(_FIELD_TYPECODE)
        self.c = array(_FIELD_TYPECODE)

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def add_exec(self, fid, from_offset, to_offset):
        self.kinds.append(EXEC)
        self.a.append(fid)
        self.b.append(from_offset)
        self.c.append(to_offset)

    def add_call(self, callee_fid, caller_fid=-1, callsite_offset=0):
        self.kinds.append(CALL)
        self.a.append(callee_fid)
        self.b.append(caller_fid)
        self.c.append(callsite_offset)

    def add_return(self, fid, caller_fid=-1, return_offset=0):
        self.kinds.append(RET)
        self.a.append(fid)
        self.b.append(caller_fid)
        self.c.append(return_offset)

    def add_switch(self, tid):
        self.kinds.append(SWITCH)
        self.a.append(tid)
        self.b.append(0)
        self.c.append(0)

    def extend(self, other):
        self.kinds.extend(other.kinds)
        self.a.extend(other.a)
        self.b.extend(other.b)
        self.c.extend(other.c)

    def extend_arrays(self, kinds, a, b, c):
        """Bulk-append parallel event sequences (lists or arrays)."""
        if not (len(kinds) == len(a) == len(b) == len(c)):
            raise TraceError("parallel event arrays must share one length")
        self.kinds.extend(kinds)
        self.a.extend(a)
        self.b.extend(b)
        self.c.extend(c)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self.kinds)

    def events(self):
        """Yield (kind, a, b, c) tuples."""
        return zip(self.kinds, self.a, self.b, self.c)

    def columns(self):
        """Zero-copy numpy views ``(kinds, a, b, c)`` of the event
        arrays.  The trace cannot grow while a view is alive."""
        return (
            _np.frombuffer(self.kinds, dtype=_np.int8),
            _np.frombuffer(self.a, dtype=_np.int64),
            _np.frombuffer(self.b, dtype=_np.int64),
            _np.frombuffer(self.c, dtype=_np.int64),
        )

    def _per_kind(self):
        """Event counts indexed by kind (one ``bincount`` pass)."""
        kinds = _np.frombuffer(self.kinds, dtype=_np.uint8)
        per_kind = _np.bincount(kinds, minlength=SWITCH + 1)
        if len(per_kind) > SWITCH + 1:  # a kind above SWITCH, or negative
            bad = _np.frombuffer(self.kinds, dtype=_np.int8)[kinds > SWITCH]
            raise TraceError(f"unknown trace event kind {int(bad[0])}")
        return [int(n) for n in per_kind]

    def counts(self):
        """Event counts by kind name."""
        return {
            _KIND_NAMES[kind]: n for kind, n in enumerate(self._per_kind())
        }

    def total_instructions(self, call_overhead=2):
        """Dynamic instruction count implied by the trace.

        EXEC contributes |to - from| + 1; each CALL and RET contributes
        ``call_overhead`` (the call/return instructions themselves).
        """
        per_kind = self._per_kind()
        ex = _np.frombuffer(self.kinds, dtype=_np.int8) == EXEC
        b = _np.frombuffer(self.b, dtype=_np.int64)[ex]
        c = _np.frombuffer(self.c, dtype=_np.int64)[ex]
        return (int(_np.abs(c - b).sum()) + per_kind[EXEC]
                + (per_kind[CALL] + per_kind[RET]) * call_overhead)

    def call_count(self):
        return self._per_kind()[CALL]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _payload_chunks(self):
        chunks = [self.kinds, self.a, self.b, self.c]
        if sys.byteorder != "little":
            swapped = []
            for chunk in chunks:
                copy = array(chunk.typecode, chunk)
                copy.byteswap()
                swapped.append(copy)
            chunks = swapped
        return [chunk.tobytes() for chunk in chunks]

    def save(self, path):
        """Write the versioned binary trace format.

        Layout: ``RTRC`` magic, u16 format version, u16 reserved flags,
        u64 event count, the four raw array payloads (kinds as int8,
        a/b/c as int64, little endian), and a trailing CRC-32 over the
        payloads.  :meth:`load` rejects anything that does not parse.
        """
        chunks = self._payload_chunks()
        crc = 0
        for blob in chunks:
            crc = zlib.crc32(blob, crc)
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(TRACE_MAGIC, TRACE_FORMAT_VERSION, 0,
                                  len(self.kinds)))
            for blob in chunks:
                fh.write(blob)
            fh.write(_CRC.pack(crc & 0xFFFFFFFF))

    @classmethod
    def load(cls, path):
        """Read a trace written by :meth:`save`.

        Raises :class:`TraceError` on bad magic, unsupported format
        version, truncation, or checksum mismatch — never unpickles.
        """
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < _HEADER.size + _CRC.size:
            raise TraceError(f"truncated trace file {path}")
        magic, version, _flags, count = _HEADER.unpack_from(data)
        if magic != TRACE_MAGIC:
            raise TraceError(f"{path} is not a trace file (bad magic)")
        if version != TRACE_FORMAT_VERSION:
            raise TraceError(
                f"{path} has trace format version {version}, "
                f"this build reads version {TRACE_FORMAT_VERSION}"
            )
        kind_bytes = count  # int8
        field_bytes = count * 8  # int64
        expected = _HEADER.size + kind_bytes + 3 * field_bytes + _CRC.size
        if len(data) != expected:
            raise TraceError(
                f"truncated or oversized trace file {path}: "
                f"{len(data)} bytes, expected {expected}"
            )
        payload = data[_HEADER.size:expected - _CRC.size]
        (crc,) = _CRC.unpack_from(data, expected - _CRC.size)
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise TraceError(f"corrupt trace file {path}: checksum mismatch")
        trace = cls()
        offset = 0
        for attr, typecode, nbytes in (
            ("kinds", _KIND_TYPECODE, kind_bytes),
            ("a", _FIELD_TYPECODE, field_bytes),
            ("b", _FIELD_TYPECODE, field_bytes),
            ("c", _FIELD_TYPECODE, field_bytes),
        ):
            arr = array(typecode)
            arr.frombytes(payload[offset:offset + nbytes])
            if sys.byteorder != "little":
                arr.byteswap()
            setattr(trace, attr, arr)
            offset += nbytes
        return trace


def validate_trace(trace, image):
    """Check stack balance and offset sanity; raises TraceError.

    Returns the maximum call depth observed.
    """
    depth = 0
    max_depth = 0
    for kind, a, b, c in trace.events():
        if kind == CALL:
            depth += 1
            max_depth = max(max_depth, depth)
            image.info(a)
        elif kind == RET:
            depth -= 1
            if depth < 0:
                raise TraceError("RET without matching CALL")
        elif kind == EXEC:
            info = image.info(a)
            if not (0 <= b < info.size_instrs and 0 <= c < info.size_instrs):
                raise TraceError(
                    f"EXEC offsets ({b}, {c}) outside {info.name} "
                    f"(size {info.size_instrs})"
                )
    return max_depth
