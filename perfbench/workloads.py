"""The three workloads: set-up, the closed measuring loop, and the checks.

A workload runs whole rounds one after another in one thread; a round is a
``run_benchmark`` call over a batch of sessions, or one ``classify`` pass
over a batch of labelled outputs. Every result is checked against what its
input was built to produce (see ``inputs``); an operation fails when it
raises or when any check on it fails.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

from autofeedback import doc_model, metrics, orchestrator, request_codec, retrieval, static_scanner
from autofeedback.gateways import ApiResponse, MockApiServer, ScriptedLlm

import inputs
from inputs import MAX_DYNAMIC, MAX_STATIC, THRESHOLD, USERS
from speed import SpeedLog

CONFIG = orchestrator.PipelineConfig(
    threshold=THRESHOLD, max_static=MAX_STATIC, max_dynamic=MAX_DYNAMIC
)
LLM_CALL_BOUND = 1 + MAX_STATIC + 2 * MAX_DYNAMIC
EXECUTION_BOUND = 1 + MAX_DYNAMIC


class Round(NamedTuple):
    """What one round did: operations, tasks, CPU seconds (probes left out)
    and wall seconds, and for each task its wall start and end, its CPU
    milliseconds and its path."""

    ops: int
    tasks: int
    seconds: float
    wall_seconds: float
    task_span: list[tuple[float, float]]
    task_ms: list[float]
    paths: list[str]


class Failures:
    """Counts failed operations and keeps the first few reasons."""

    def __init__(self):
        self.count = 0
        self.reasons: list[str] = []

    def add(self, what: str) -> None:
        self.count += 1
        if len(self.reasons) < 10:
            self.reasons.append(what)


# -- set-up ----------------------------------------------------------------------


def write_docs(docs: list[inputs.Doc], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = directory / f"doc-{i:04d}.json"
        path.write_text(json.dumps(doc.raw), encoding="utf-8")
        paths.append(path)
    return paths


def set_up(paths: list[Path]):
    """What a caller pays before its first task: load every document from
    its file and fit its similarity model."""
    docs = [doc_model.load_document(p) for p in paths]
    models = [retrieval.default_similarity(d) for d in docs]
    return docs, models


def timed_set_up(paths: list[Path], speed: SpeedLog):
    """One set-up; returns what it loaded, its CPU seconds and its CPU
    seconds at the probe's reference speed."""
    gc.collect()
    for _ in range(3):
        speed.probe(force=True)
    start, cpu = perf_counter(), process_time()
    loaded = set_up(paths)
    cpu, end = process_time() - cpu, perf_counter()
    speed.probe(force=True)
    return loaded, cpu, cpu / speed.slowdown(start, end)


# -- the mock executor -------------------------------------------------------------


def _handler(name: str, base: str):
    ok = ApiResponse(200, json.dumps({"api": name, "status": "ok"}))

    def handle(args):
        if base == "route_planning":
            for key in ("origin", "dest"):
                first = str(args.get(key, "0")).split(",")[0]
                if abs(float(first)) > 90:
                    return ApiResponse(200, "info_code:20000")
        elif base == "userLogin" and args.get("username") not in USERS:
            return ApiResponse(200, "info_code:401")
        return ok

    return handle


def routes_for(doc: inputs.Doc) -> dict:
    return {name: _handler(name, base) for name, base in doc.bases.items()}


# -- sessions ----------------------------------------------------------------------


def _recount(llm: ScriptedLlm, script: tuple[str, ...]) -> int:
    """Whitespace tokens of every received prompt plus every reply given."""
    prompts = sum(len(m.content.split()) for p in llm.received_prompts for m in p)
    replies = sum(
        len(script[min(i, len(script) - 1)].split()) for i in range(llm.calls)
    )
    return prompts + replies


def _check_session(s: inputs.Session, result, llm, server, log_path: Path) -> str | None:
    log = result.log
    if result.error is not None:
        return f"raised: {result.error}"
    if result.satisfied != s.satisfied:
        return f"satisfied={result.satisfied}, built for {s.satisfied}"
    if result.total_llm_calls > LLM_CALL_BOUND or len(server.executed) > EXECUTION_BOUND:
        return "budget law broken"
    if result.total_llm_calls != s.llm_calls or llm.calls != s.llm_calls:
        return f"{result.total_llm_calls} LLM calls, built for {s.llm_calls}"
    if len(server.executed) != s.executions:
        return f"{len(server.executed)} executions, built for {s.executions}"
    if s.path == "exhausted" and (server.executed or result.response is not None):
        return "executed after an exhausted static budget"
    classes = tuple(e.finding.error_type.value for e in log.static_events)
    if classes != s.classes:
        return f"error types {classes}, built for {s.classes}"
    if len(log.dynamic_records) != s.dynamic_records:
        return f"{len(log.dynamic_records)} dynamic records, built for {s.dynamic_records}"
    if s.message is not None:
        retrieved = log.dynamic_records[0].error_message
        if retrieved is None or s.message not in retrieved.text:
            return f"retrieved {retrieved and retrieved.text!r}, expected {s.message!r}"
    if sum(log.token_totals) != _recount(llm, s.script):
        return f"token totals {log.token_totals} differ from the recount"
    lines = log_path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(s.classes) + s.dynamic_records:
        return f"{len(lines)} log lines, built for {len(s.classes) + s.dynamic_records}"
    if any(json.loads(line)["task_id"] != s.task_id for line in lines):
        return "log line for another task"
    return None


class SessionWorkload:
    """Sessions through ``run_benchmark`` with ``log_dir`` set."""

    def __init__(self, docs: list[inputs.Doc], rounds: list[list[inputs.Session]], work: Path):
        self.rounds = rounds
        self.doc_paths = write_docs(docs, work / "docs")
        self.log_dir = work / "logs"
        self.routes = [routes_for(d) for d in docs]
        self.cost: dict[str, float] | None = None

    def set_up(self, speed: SpeedLog) -> tuple[float, float]:
        (self.docs, self.models), cpu, scaled = timed_set_up(self.doc_paths, speed)
        self._model_of = {id(d): m for d, m in zip(self.docs, self.models)}
        return cpu, scaled

    def run_round(
        self, index: int, failures: Failures, speed: SpeedLog | None, jobs: int = 1
    ) -> Round:
        """Round *index*; *speed* probes before each session (not with
        ``jobs > 1``, where sessions overlap)."""
        sessions = self.rounds[index % len(self.rounds)]
        by_id = {s.task_id: s for s in sessions}
        tasks = [
            orchestrator.BenchTask(s.task_id, s.instruction, self.docs[s.doc], s.truth, s.script)
            for s in sessions
        ]
        llms, servers, timing = {}, {}, {}

        def llm_factory(task):
            llms[task.task_id] = ScriptedLlm(list(task.script))
            return llms[task.task_id]

        def executor_factory(task):
            servers[task.task_id] = MockApiServer(self.routes[by_id[task.task_id].doc])
            return servers[task.task_id]

        run_task = orchestrator.run_task

        def timed_run_task(*args, task_id, **kwargs):
            if speed is not None:
                speed.probe()
            start, cpu = perf_counter(), process_time()
            try:
                return run_task(*args, task_id=task_id, **kwargs)
            finally:
                timing[task_id] = start, perf_counter(), process_time() - cpu

        probes_before = speed.spent_s if speed is not None else 0.0
        orchestrator.run_task = timed_run_task
        try:
            start, cpu = perf_counter(), process_time()
            report, results = orchestrator.run_benchmark(
                tasks,
                CONFIG,
                llm_factory=llm_factory,
                executor_factory=executor_factory,
                model_factory=lambda doc: self._model_of[id(doc)],
                log_dir=self.log_dir,
                jobs=jobs,
            )
            cpu, end = process_time() - cpu, perf_counter()
        finally:
            orchestrator.run_task = run_task
        probes = speed.spent_s - probes_before if speed is not None else 0.0

        for s, result in zip(sessions, results):
            reason = _check_session(
                s, result, llms[s.task_id], servers[s.task_id],
                self.log_dir / f"{s.task_id}.jsonl",
            )
            if reason is not None:
                failures.add(f"{s.task_id} ({s.path}): {reason}")
        accuracy = 100.0 * sum(s.satisfied for s in sessions) / len(sessions)
        histogram = Counter(c for s in sessions for c in s.classes)
        got = {t.value: n for t, n in report.error_histogram.items()}
        if report.accuracy_pct != accuracy or got != dict(histogram):
            failures.add(f"round {index}: report {report.accuracy_pct} {got}")
        if self.cost is None:
            tokens = sum(sum(r.log.token_totals) for r in results) / len(results)
            self.cost = {
                "llm_calls_per_task": sum(r.total_llm_calls for r in results) / len(results),
                "api_calls_per_task": sum(len(v.executed) for v in servers.values()) / len(results),
                "tokens_per_task": tokens,
                "overhead": metrics.overhead(tokens, accuracy),
            }
        return Round(
            len(sessions), len(sessions), cpu - probes, end - start,
            [timing[s.task_id][:2] for s in sessions],
            [timing[s.task_id][2] * 1e3 for s in sessions],
            [s.path for s in sessions],
        )


# -- classify ----------------------------------------------------------------------


class ClassifyWorkload:
    """The ``classify`` command's loop over labelled recorded outputs: parse
    the truth, parse the output, label it, then build the histogram."""

    def __init__(self, doc: inputs.Doc, passes: list[list[inputs.Sample]], work: Path):
        self.passes = passes
        self.doc_paths = write_docs([doc], work / "docs")
        self.cost = {
            "llm_calls_per_task": 0.0, "api_calls_per_task": 0.0,
            "tokens_per_task": 0.0, "overhead": 0.0,
        }

    def set_up(self, speed: SpeedLog) -> tuple[float, float]:
        ([self.doc], [self.model]), cpu, scaled = timed_set_up(self.doc_paths, speed)
        return cpu, scaled

    def run_round(self, index: int, failures: Failures, speed: SpeedLog) -> Round:
        """One pass is one task; each labelled sample is one operation."""
        samples = self.passes[index % len(self.passes)]
        doc, model = self.doc, self.model
        speed.probe()
        start, cpu = perf_counter(), process_time()
        labels = []
        for sample in samples:
            truth = request_codec.parse_request(sample.truth).request
            labels.append(
                static_scanner.classify_against_truth(
                    orchestrator.parse_llm_output(sample.output), truth, doc, model, THRESHOLD
                )
            )
        histogram = metrics.error_distribution(labels)
        metrics.error_distribution_percentages(histogram)
        cpu, end = process_time() - cpu, perf_counter()
        for sample, label in zip(samples, labels):
            if label.value != sample.label:
                failures.add(f"{sample.output!r}: labelled {label.value}, built as {sample.label}")
        expected = Counter(s.label for s in samples)
        if {t.value: n for t, n in histogram.items()} != dict(expected):
            failures.add(f"round {index}: histogram differs")
        return Round(len(samples), 1, cpu, end - start, [(start, end)], [cpu * 1e3], ["pass"])


# -- building a workload from its name and seed -----------------------------------------

LARGE_DOC_APIS = 360
MANY_DOCS = 240
DOCS_PER_ROUND = 5
CLASSIFY_PER_LABEL = 16


def build(name: str, seed: int, work: Path):
    """The workload *name* with inputs from *seed*. The generator's own
    objects are frozen out of the garbage collector, so that collections
    during set-up and rounds walk only what the program allocated."""
    workload = _build(name, seed, work)
    gc.collect()
    gc.freeze()
    return workload


def _build(name: str, seed: int, work: Path):
    if name == "sessions-large-doc":
        doc = inputs.large_doc(seed, LARGE_DOC_APIS)
        rounds = inputs.session_rounds(seed + 1, [doc], 24, 1, ("plain",))
        return SessionWorkload([doc], rounds, work)
    if name == "sessions-many-docs":
        docs = inputs.many_docs(seed, MANY_DOCS)
        rounds = inputs.session_rounds(
            seed + 1, docs, MANY_DOCS // DOCS_PER_ROUND, DOCS_PER_ROUND,
            ("verbose", "bare", "verbose"),
        )
        return SessionWorkload(docs, rounds, work)
    if name == "classify-large-doc":
        doc = inputs.large_doc(seed, LARGE_DOC_APIS)
        passes = inputs.classify_passes(seed + 1, doc, 16, CLASSIFY_PER_LABEL)
        return ClassifyWorkload(doc, passes, work)
    raise SystemExit(f"unknown workload {name!r}")

