"""List the lines of ``src/irrcensus`` that no test executed.

A pytest plugin on the standard library alone (``sys.settrace``), for when
``coverage`` is not installed.  From the repository root:

    PYTHONPATH=src:tools python -m pytest -q -p untested_lines

At the end of the run it prints, per module, the executable lines that
never ran, as ranges.  A line is executable when the compiled module maps
bytecode to it (``co_lines``); a ``def`` or ``class`` line counts as run
when its body did.  Lines run only in a subprocess (the CLI tests that
start ``python -m irrcensus.cli``) are not seen.  Tracing makes the suite
about three times slower (tier-1 took 110-145 s traced, against 35-50 s
untraced, on 2 vCPUs), so it is not part of tier-1.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "irrcensus"

_seen: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        _seen[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _seen:
        if not name.startswith(str(SRC)):
            return None
        _seen[name] = set()
    _seen[name].add(frame.f_code.co_firstlineno)
    return _local


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object of the module maps bytecode to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # line 0 (a module's RESUME) and None (no line) are not source lines
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """'3-5, 9' for [3, 4, 5, 9]."""
    out, run = [], []
    for n in sorted(lines):
        if run and n != run[-1] + 1:
            out.append(run)
            run = []
        run.append(n)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in out)


def pytest_configure(config):
    # imports made while collecting must be traced too
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    terminalreporter.section("untested src lines")
    total = 0
    for path in sorted(SRC.glob("*.py")):
        missed = executable_lines(path) - _seen.get(str(path), set())
        total += len(missed)
        if missed:
            write(f"{path.relative_to(SRC.parent.parent)}: {ranges(missed)}")
    write(f"{total} untested lines")
