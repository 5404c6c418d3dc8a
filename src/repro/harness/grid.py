"""Grid primitives of the experiment engine (``ExperimentRunner.run_grid``).

A figure is a **grid** of simulation cells.  Each cell is a
:class:`RunSpec` — the complete value-typed description of one
simulation (workload, layout, prefetcher spec, perfect-I-cache flag,
CGHC variant, optional SimConfig override).  Engines take a list of
specs and return a :class:`GridResult`: the stats for every cell that
succeeded plus a :class:`CellFailure` per cell that did not, so one bad
cell degrades a figure instead of aborting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Failure kinds recorded on a CellFailure.
FAIL_ERROR = "error"
FAIL_TIMEOUT = "timeout"
FAIL_CRASH = "worker-crash"
FAIL_CACHE = "cache-corruption"


@dataclass(frozen=True)
class RunSpec:
    """One simulation cell, by value (hashable, picklable, cacheable)."""

    suite: str
    layout: str
    prefetcher: tuple | None = None
    perfect: bool = False
    cghc: str = "CGHC-2K+32K"
    sim_config: object = None  # SimConfig override or None for the runner's

    def label(self):
        parts = [self.suite, self.layout]
        if self.prefetcher is not None:
            parts.append("-".join(str(p) for p in self.prefetcher))
        if self.perfect:
            parts.append("perfect")
        return "/".join(parts)


@dataclass(frozen=True)
class CellFailure:
    """Why one cell produced no stats."""

    key: object  # the RunSpec (or task label) that failed
    kind: str  # FAIL_ERROR | FAIL_TIMEOUT | FAIL_CRASH | FAIL_CACHE
    error: str
    attempts: int = 1

    def describe(self):
        key = self.key.label() if isinstance(self.key, RunSpec) else self.key
        return f"{key}: {self.kind} after {self.attempts} attempt(s): {self.error}"


class GridResult:
    """Per-cell results of one grid submission (possibly partial)."""

    def __init__(self):
        self.cells = {}  # RunSpec (or task label) -> result
        self.failures = []  # list[CellFailure]

    def set(self, key, value):
        self.cells[key] = value

    def get(self, key, default=None):
        return self.cells.get(key, default)

    def __getitem__(self, key):
        try:
            return self.cells[key]
        except KeyError:
            for failure in self.failures:
                if failure.key == key:
                    raise KeyError(failure.describe()) from None
            raise

    def __len__(self):
        return len(self.cells)

    def __contains__(self, key):
        return key in self.cells

    @property
    def ok(self):
        return not self.failures

    def failed_keys(self):
        return [failure.key for failure in self.failures]

    def failure_report(self):
        """Human-readable one-liner per failed cell."""
        return [failure.describe() for failure in self.failures]

    def raise_if_failed(self):
        if self.failures:
            from repro.errors import ReproError

            raise ReproError(
                "grid had failing cells:\n  "
                + "\n  ".join(self.failure_report())
            )
