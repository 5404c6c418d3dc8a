"""Next-N-line prefetching (Smith & Hsu), §2 of the paper.

On each fetch of line L, lines L+1 .. L+N are prefetched unless already
present.  For a sequential fetch stream only the leading edge (L+N) is
new — the rest were issued on earlier lines — so the implementation
fast-paths the +1 step and fans out fully only after a jump.  This is
behaviourally identical to issuing all N every time (the others would be
squashed) but much cheaper to simulate.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.uarch.prefetch.base import Prefetcher


class NextNLinePrefetcher(Prefetcher):
    """Prefetch the next N sequential lines on every line fetch."""

    def __init__(self, n_lines, origin="nl"):
        if n_lines <= 0:
            raise ConfigError("NL degree must be positive")
        self.n_lines = n_lines
        self.origin = origin
        self.name = f"NL_{n_lines}"
        self._last_line = -2
        # Optimized-engine contract: on_line_access is exactly the
        # sequential-NL automaton — on line == _last_line + 1 it issues
        # one prefetch for line + seq_lead, on a repeat it does nothing.
        # The fast engine inlines that common case.
        self.nl_component = self
        self.seq_lead = n_lines

    def reset(self):
        self._last_line = -2

    def on_line_access(self, line, engine):
        if line == self._last_line + 1:
            engine.issue_prefetch(line + self.n_lines, self.origin)
        elif line != self._last_line:
            issue = engine.issue_prefetch
            for step in range(1, self.n_lines + 1):
                issue(line + step, self.origin)
        self._last_line = line


class RunAheadNLPrefetcher(Prefetcher):
    """The run-ahead NL variant the paper evaluates and rejects (§5.6):
    prefetch N lines starting M lines beyond the current line."""

    def __init__(self, n_lines, run_ahead, origin="nl"):
        if n_lines <= 0 or run_ahead < 0:
            raise ConfigError("bad run-ahead NL geometry")
        self.n_lines = n_lines
        self.run_ahead = run_ahead
        self.origin = origin
        self.name = f"RA-NL_{n_lines}+{run_ahead}"
        self._last_line = -2
        # fast-engine inline contract (see NextNLinePrefetcher)
        self.nl_component = self
        self.seq_lead = run_ahead + n_lines

    def reset(self):
        self._last_line = -2

    def on_line_access(self, line, engine):
        if line == self._last_line + 1:
            engine.issue_prefetch(
                line + self.run_ahead + self.n_lines, self.origin
            )
        elif line != self._last_line:
            issue = engine.issue_prefetch
            base = line + self.run_ahead
            for step in range(1, self.n_lines + 1):
                issue(base + step, self.origin)
        self._last_line = line


class TaggedNLPrefetcher(Prefetcher):
    """Tagged sequential prefetching (Smith's classic refinement).

    The next N lines are prefetched only on a demand miss or on the
    first reference to a previously prefetched line (the tag bit), which
    throttles the useless-prefetch traffic of plain always-prefetch NL
    at some cost in coverage.  Included as a related-work baseline; the
    paper evaluates plain NL.
    """

    def __init__(self, n_lines, origin="nl"):
        if n_lines <= 0:
            raise ConfigError("tagged NL degree must be positive")
        self.n_lines = n_lines
        self.origin = origin
        self.name = f"T-NL_{n_lines}"

    def on_line_access(self, line, engine):
        if engine.last_access_missed or engine.last_access_first_touch:
            issue = engine.issue_prefetch
            for step in range(1, self.n_lines + 1):
                issue(line + step, self.origin)
