"""The compile's rejections: every malformed event the fast engine's
compile refuses, one bad event among well-formed ones per case.

The compile checks the whole trace up front and names the fault.  The
reference engine checks none of this: Python's negative indexing lets
it replay a negative fid, offset or call-site offset from the wrong
lines, and the other cases fail somewhere inside its loop.
"""

import re

import pytest

from repro.errors import SimulationError
from repro.instrument.trace import Trace
from repro.uarch.fast_engine import compile_trace
from tests.uarch.test_engine_equivalence import (
    CHAIN,
    FUNC_SIZE,
    N_FUNCTIONS,
    build_layout,
)

BEYOND = FUNC_SIZE * 100  # past every function's last line

BAD_EVENTS = {
    "unknown kind": ((4, 0, 0, 0), "unknown trace event kind 4"),
    "unknown EXEC fid": ((0, N_FUNCTIONS, 0, 5),
                         "EXEC event references unknown function"),
    "negative EXEC fid": ((0, -1, 0, 5),
                          "EXEC event references unknown function"),
    "negative offset": ((0, 1, -3, 5), "EXEC event has a negative offset"),
    "offset beyond extent": ((0, 1, 0, BEYOND),
                             "EXEC offset beyond function extent"),
    "unknown caller": ((1, 2, N_FUNCTIONS, 0),
                       "CALL event references unknown caller"),
    "negative call-site offset": (
        (1, 2, 1, -1), "CALL event has a negative call-site offset"),
    "call-site beyond extent": (
        (1, 2, 1, BEYOND), "call-site offset beyond function extent"),
}


def with_bad_event(event):
    """CHAIN with ``event`` spliced into its middle."""
    events = list(CHAIN.events())
    middle = len(events) // 2
    trace = Trace()
    for kind, a, b, c in events[:middle] + [event] + events[middle:]:
        trace.kinds.append(kind)
        trace.a.append(a)
        trace.b.append(b)
        trace.c.append(c)
    return trace


def test_the_well_formed_part_compiles():
    for kind in ("identity", "scrambled"):
        compiled = compile_trace(CHAIN, build_layout(kind))
        assert compiled.n_events == len(CHAIN)


@pytest.mark.parametrize("case", sorted(BAD_EVENTS))
@pytest.mark.parametrize("layout_kind", ["identity", "scrambled"])
def test_compile_rejects_a_bad_event(case, layout_kind):
    event, message = BAD_EVENTS[case]
    trace = with_bad_event(event)
    with pytest.raises(SimulationError, match=re.escape(message)):
        compile_trace(trace, build_layout(layout_kind))
