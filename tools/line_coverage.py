"""List every executable line of ``src/autofeedback`` that no test runs.

    python3 tools/line_coverage.py

Uses the standard library only. The executable lines of a module are the
line numbers of its code objects, read from ``co_lines()``, nested code
included. The run traces every thread with ``sys.settrace`` and
``threading.settrace``, keeps the lines executed in the package's files,
and runs the tier-1 suite in-process through ``pytest.main``. Then it
prints, module by module, each executable line that never ran, with its
text, and exits with pytest's status.

Tracing makes the suite about three times slower (about a minute for
tier-1), so Hypothesis deadlines are switched off for the run.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "autofeedback"
TIER1_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some instruction of *path*'s code carries."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class _NoDeadlines:
    """A pytest plugin that loads a Hypothesis profile without deadlines
    once pytest has loaded Hypothesis's own plugin."""

    def pytest_configure(self, config):
        from hypothesis import settings

        settings.register_profile("line_coverage", deadline=None)
        settings.load_profile("line_coverage")


def run_traced() -> tuple[int, set[tuple[str, int]]]:
    """Run tier-1 under the tracer; return its status and the executed
    ``(file name, line)`` pairs of the package."""
    prefix = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        # Only the package's frames get a line tracer; every other call
        # costs this one prefix test.
        if frame.f_code.co_filename.startswith(prefix):
            return trace_lines
        return None

    # Import the package from this checkout, under the tracer, so that
    # module-level lines count and file names are absolute.
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(TIER1_ARGS, plugins=[_NoDeadlines()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main() -> int:
    os.chdir(ROOT)
    status, hits = run_traced()
    total_missed = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        ran = {line for name, line in hits if name == str(path)}
        missed = sorted(executable_lines(path) - ran)
        total_missed += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} line(s) not run")
            for line in missed:
                print(f"  {line:4d}  {source[line - 1].strip()}")
    print(f"{total_missed} executable line(s) not run")
    return status


if __name__ == "__main__":
    sys.exit(main())
