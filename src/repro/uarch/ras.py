"""The modified return address stack (§3.2).

A conventional RAS predicts only the return address.  CGP needs the
*starting address of the function being returned into*, so every call
pushes (return address, caller's start address); every return pops both.
The stack is a fixed-depth circular buffer: overflow silently drops the
oldest entry, underflow predicts nothing — both occur naturally under
deep recursion and context switches, and CGP simply issues no prefetch
then.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import SimulationError


class RasEntry(NamedTuple):
    return_line: int
    caller_start_line: int
    caller_fid: int


class ModifiedReturnAddressStack:
    """Fixed-depth circular return address stack."""

    def __init__(self, depth=32):
        if depth <= 0:
            raise SimulationError("RAS depth must be positive")
        self._depth = depth
        self._buffer = [None] * depth
        self._top = 0  # index of next push slot
        self._count = 0
        self.overflows = 0
        self.underflows = 0

    def push(self, return_line, caller_start_line, caller_fid):
        self._buffer[self._top] = RasEntry(return_line, caller_start_line, caller_fid)
        self._top = (self._top + 1) % self._depth
        if self._count < self._depth:
            self._count += 1
        else:
            self.overflows += 1

    def pop(self):
        """Pop the predicted (return address, caller start); None if empty."""
        if self._count == 0:
            self.underflows += 1
            return None
        self._top = (self._top - 1) % self._depth
        self._count -= 1
        entry = self._buffer[self._top]
        self._buffer[self._top] = None
        return entry

    def peek(self):
        if self._count == 0:
            return None
        return self._buffer[(self._top - 1) % self._depth]

    def __len__(self):
        return self._count

    def clear(self):
        self._buffer = [None] * self._depth
        self._top = 0
        self._count = 0
