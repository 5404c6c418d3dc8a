#!/usr/bin/env python
"""Line coverage of the fast replay kernels, standard library only.

Runs a pytest selection in-process under a ``sys.settrace`` line
tracer and lists the lines of ``src/repro/uarch/fast_engine.py`` that
never executed.  An unexecuted branch is either dead (delete it) or
untested (give the equivalence or fuzz strategies an input that
reaches it).

The exit status is nonzero when the selected tests fail, or when an
unexecuted line records an observation — writes one of the kernels'
collector count arrays, the lateness tally, or the lifecycle ring —
because the cross-engine suites can only vouch for the observation
writes they run::

    PYTHONPATH=src python scripts/kernel_coverage.py
    PYTHONPATH=src python scripts/kernel_coverage.py -- \\
        -q tests/uarch/test_engine_equivalence.py

Arguments after ``--`` go to pytest; the default selection is the
collector-on equivalence and fuzz tests.
"""

from __future__ import annotations

import argparse
import inspect
import os
import re
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join(ROOT, "src", "repro", "uarch", "fast_engine.py")

DEFAULT_TESTS = [
    "-q",
    "tests/uarch/test_engine_equivalence.py::"
    "test_attribution_identical_across_engines",
    "tests/uarch/test_engine_equivalence.py::"
    "test_attribution_totals_reconcile_with_simstats",
    "tests/uarch/test_engine_equivalence.py::"
    "test_empty_trace_identical_across_engines",
    "tests/uarch/test_engine_fuzz.py",
]

#: a kernel statement that records an observation: a write to an
#: ``o_*`` count array or the lateness tally, or to the lifecycle's open
#: map or ring
OBSERVATION = re.compile(r"^\s*(o_\w+\[|lc_open\[|lc_ring\()")


def executable_lines(path):
    """Line numbers carrying bytecode inside functions (module and class
    bodies run at import, before any test)."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines = set()
    stack = [code]
    while stack:
        co = stack.pop()
        if co.co_flags & inspect.CO_OPTIMIZED:
            lines.update(ln for _s, _e, ln in co.co_lines() if ln is not None)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(path, pytest_args):
    """Run pytest in-process; returns (exit code, executed line set)."""
    import pytest

    executed = set()
    is_target = {}

    def local(frame, event, _arg):
        if event == "line":
            executed.add(frame.f_lineno)
        return local

    def global_(frame, _event, _arg):
        filename = frame.f_code.co_filename
        hit = is_target.get(filename)
        if hit is None:
            hit = is_target[filename] = os.path.realpath(filename) == path
        if hit:
            executed.add(frame.f_code.co_firstlineno)
            return local
        return None

    sys.settrace(global_)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(status), executed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pytest_args", nargs="*",
                        help="pytest arguments (after --); default: the "
                             "collector-on equivalence and fuzz tests")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    status, executed = run_traced(os.path.realpath(TARGET),
                                  args.pytest_args or DEFAULT_TESTS)
    if status != 0:
        print(f"kernel coverage: pytest exited with {status}",
              file=sys.stderr)
        return status

    with open(TARGET, encoding="utf-8") as fh:
        source = fh.read().splitlines()
    lines = executable_lines(TARGET)
    missed = sorted(lines - executed)
    name = os.path.relpath(TARGET, ROOT)
    for ln in missed:
        print(f"{name}:{ln}: {source[ln - 1].strip()}")
    print(f"{len(lines) - len(missed)} of {len(lines)} executable lines "
          f"of {name} executed; {len(missed)} never ran")
    unrecorded = [ln for ln in missed if OBSERVATION.match(source[ln - 1])]
    if unrecorded:
        print(f"FAIL: {len(unrecorded)} observation writes never ran: "
              + ", ".join(map(str, unrecorded)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
