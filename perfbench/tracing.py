"""Per-layer timing by wrapping the public functions of each module.

Wrappers are installed on every ``autofeedback`` module attribute (and class
attribute) that holds the original function, which is where callers look
them up; nothing under ``src/`` changes. A timed wrapper records calls, total
CPU time and self time (total minus the time of timed wrappers it called); a
counting wrapper only records calls, and its time stays in its caller.
"""

from __future__ import annotations

import functools
import sys
from time import process_time

from autofeedback import (
    doc_model,
    dynamic_analyzer,
    gateways,
    orchestrator,
    request_codec,
    retrieval,
    static_scanner,
)

# (module, attribute path, timed?). Names follow ``module.qualname``.
TARGETS = (
    (retrieval, "build_chunk_index", True),
    (retrieval, "retrieve_relevant_apis", True),
    (retrieval, "retrieve_error_message", True),
    (retrieval, "default_similarity", True),
    (retrieval, "TfidfSimilarity.score", False),
    (retrieval, "TfidfSimilarity.embed", False),
    (static_scanner, "detect", True),
    (static_scanner, "classify_against_truth", True),
    (static_scanner, "render_feedback", True),
    (doc_model, "load_document", True),
    (doc_model, "lookup_api", False),
    (request_codec, "extract_request_block", True),
    (request_codec, "parse_request", True),
    (request_codec, "serialize_request", True),
    (dynamic_analyzer, "run_dynamic_loop", True),
    (dynamic_analyzer, "assemble_react_prompt", True),
    (gateways, "ScriptedLlm.complete", True),
    (gateways, "MockApiServer.execute", False),
    (orchestrator, "run_task", True),
    (orchestrator, "render_doc_prompt", True),
    (orchestrator, "write_session_log", True),
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs the wrappers on demand and accumulates :class:`Stat` per name."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # child time accumulated per open span
        self._patches: list[tuple[object, str, object, object]] = []
        for module, path, timed in TARGETS:
            name = f"{module.__name__.rsplit('.', 1)[1]}.{path}"
            self.stats[name] = Stat()
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                owners = [owner]
            else:
                original = getattr(module, attr)
                owners = [
                    m for key, m in sys.modules.items()
                    if key.split(".")[0] == "autofeedback"
                    and vars(m).get(attr) is original
                ]
            wrapper = self._wrap(name, original, timed)
            self._patches += [(owner, attr, original, wrapper) for owner in owners]

    def _wrap(self, name: str, fn, timed: bool):
        stat = self.stats[name]
        stack = self._stack
        if not timed:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counting

        @functools.wraps(fn)
        def timing(*args, **kwargs):
            stack.append(0.0)
            start = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = process_time() - start
                child = stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - child
                if stack:
                    stack[-1] += elapsed
        return timing

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {k: (s.calls, s.total, s.self_time) for k, s in self.stats.items()}


def delta(after: dict, before: dict) -> dict[str, tuple[int, float, float]]:
    return {
        k: tuple(a - b for a, b in zip(after[k], before[k])) for k in after
    }
