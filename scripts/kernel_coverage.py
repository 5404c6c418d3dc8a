#!/usr/bin/env python
"""Line coverage of the fast replay kernels, standard library only.

Runs a pytest selection in-process under a ``sys.settrace`` line
tracer and lists the lines that never executed of
``src/repro/uarch/fast_engine.py`` and of the ``FlatCghc`` class in
``src/repro/core/cghc.py`` (the flat CGHC image the kernels mutate).
An unexecuted branch is either dead (delete it) or untested (give the
equivalence or fuzz strategies an input that reaches it).

The exit status is nonzero when the selected tests fail, when an
unexecuted line records an observation — writes one of the kernels'
collector count arrays, the lateness tally, or the lifecycle ring —
because the cross-engine suites can only vouch for the observation
writes they run, or when a line of ``FlatCghc.ensure`` or
``FlatCghc.write_back`` never ran, because the flat-vs-dict oracle
can only vouch for the exchange, allocation and write-back steps it
runs::

    PYTHONPATH=src python scripts/kernel_coverage.py
    PYTHONPATH=src python scripts/kernel_coverage.py -- \\
        -q tests/uarch/test_engine_equivalence.py

Arguments after ``--`` go to pytest; the default selection is the
collector-on equivalence and fuzz tests and the flat-CGHC oracle suite.
"""

from __future__ import annotations

import argparse
import inspect
import os
import re
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (source file, qualname prefix of the functions listed, functions
#: every line of which must run)
TARGETS = [
    (os.path.join(ROOT, "src", "repro", "uarch", "fast_engine.py"), "", ()),
    (os.path.join(ROOT, "src", "repro", "core", "cghc.py"), "FlatCghc.",
     ("FlatCghc.ensure", "FlatCghc.write_back")),
]

DEFAULT_TESTS = [
    "-q",
    "tests/uarch/test_engine_equivalence.py::"
    "test_attribution_identical_across_engines",
    "tests/uarch/test_engine_equivalence.py::"
    "test_attribution_totals_reconcile_with_simstats",
    "tests/uarch/test_engine_equivalence.py::"
    "test_empty_trace_identical_across_engines",
    "tests/uarch/test_engine_fuzz.py",
    "tests/core/test_cghc_flat.py",
]

#: a kernel statement that records an observation: a write to an
#: ``o_*`` count array or the lateness tally, or to the lifecycle's open
#: map or ring
OBSERVATION = re.compile(r"^\s*(o_\w+\[|lc_open\[|lc_ring\()")


def executable_lines(path, scope=""):
    """qualname -> line numbers carrying bytecode, for the functions
    whose qualified name starts with ``scope`` (module and class bodies
    run at import, before any test)."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines = {}
    stack = [code]
    while stack:
        co = stack.pop()
        if co.co_flags & inspect.CO_OPTIMIZED and (
                co.co_qualname.startswith(scope)):
            lines.setdefault(co.co_qualname, set()).update(
                ln for _s, _e, ln in co.co_lines() if ln is not None)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(paths, pytest_args):
    """Run pytest in-process; returns (exit code, {path: executed line
    set})."""
    import pytest

    executed = {path: set() for path in paths}

    def local_tracer(lines):
        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    tracers = {path: local_tracer(executed[path]) for path in paths}
    tracer_of = {}

    def global_(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if filename not in tracer_of:
            tracer_of[filename] = tracers.get(os.path.realpath(filename))
        tracer = tracer_of[filename]
        if tracer is not None:
            executed[os.path.realpath(filename)].add(
                frame.f_code.co_firstlineno)
        return tracer

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
    paths = [os.path.realpath(path) for path, _scope, _gated in TARGETS]
    status, executed = run_traced(paths, args.pytest_args or DEFAULT_TESTS)
    if status != 0:
        print(f"kernel coverage: pytest exited with {status}",
              file=sys.stderr)
        return status

    failures = []
    for path, scope, gated in TARGETS:
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        by_function = executable_lines(path, scope)
        lines = set().union(*by_function.values())
        missed = sorted(lines - executed[os.path.realpath(path)])
        name = os.path.relpath(path, ROOT)
        for ln in missed:
            print(f"{name}:{ln}: {source[ln - 1].strip()}")
        print(f"{len(lines) - len(missed)} of {len(lines)} executable "
              f"lines of {name}{f' ({scope[:-1]})' if scope else ''} "
              f"executed; {len(missed)} never ran")
        unrecorded = [ln for ln in missed
                      if OBSERVATION.match(source[ln - 1])]
        if unrecorded:
            failures.append(f"{len(unrecorded)} observation writes of "
                            f"{name} never ran: "
                            + ", ".join(map(str, unrecorded)))
        for qualname, function_lines in by_function.items():
            unrun = sorted(function_lines.intersection(missed))
            if unrun and qualname.startswith(gated):
                failures.append(f"{qualname} lines never ran: "
                                + ", ".join(map(str, unrun)))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
