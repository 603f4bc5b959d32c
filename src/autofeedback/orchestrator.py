"""The full pipeline: initial generation, bounded static feedback loop,
dispatch to the dynamic loop, and session logging for human collaboration.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from .doc_model import ApiDocument
from .dynamic_analyzer import ExactMatchJudge, FeedbackRecord, run_dynamic_loop
from .errors import EmptyDatasetError
from .gateways import (
    ApiExecutor,
    ApiResponse,
    ChatMessage,
    LlmClient,
    LlmReply,
    MockApiServer,
    ScriptedLlm,
)
from .metrics import (
    BenchmarkReport,
    accuracy,
    error_distribution,
    overhead,
    process_correctness,
)
from .request_codec import (
    CLOSE_MARKER,
    OPEN_MARKER,
    ApiRequest,
    ParseOutcome,
    parse_llm_output,
    parse_request,
    serialize_request,
)
from .retrieval import (
    CHUNK_THRESHOLD,
    PreparedDoc,
    SimilarityModel,
    build_chunk_index,
    default_similarity,
    retrieve_relevant_apis,
)
from .static_scanner import DetectionFinding, ErrorType, detect, render_feedback

__all__ = [
    "PipelineConfig",
    "StaticEvent",
    "SessionLog",
    "TaskResult",
    "prepare_document",
    "run_task",
    "render_doc_prompt",
    "opening_messages",
    "echo_executor",
    "BenchTask",
    "task_llm",
    "run_benchmark",
    "executed_sequence",
    "session_log_lines",
    "write_session_log",
    "write_summary",
    "SYSTEM_PREAMBLE",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Loop budgets and detection knobs with their default settings."""

    k: int = 1
    threshold: float = 0.5
    max_static: int = 3
    max_dynamic: int = 2

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_static < 0 or self.max_dynamic < 0:
            raise ValueError("budgets must be >= 0")


@dataclass
class StaticEvent:
    """One generation attempt in the static loop, at its index in the log."""

    llm_output_raw: str
    outcome: ParseOutcome
    finding: DetectionFinding
    feedback_text: str | None = None


@dataclass
class SessionLog:
    """The trace of one task session, append-only while running; its
    verdict is on the :class:`TaskResult`.

    ``executions`` holds every request sent to the executor, in the order
    sent, with its response; the response is ``None`` while the request
    is in flight and stays ``None`` when the executor raised on it."""

    task_id: str
    static_events: list[StaticEvent] = field(default_factory=list)
    dynamic_records: list[FeedbackRecord] = field(default_factory=list)
    executions: list[tuple[ApiRequest, ApiResponse | None]] = field(default_factory=list)
    token_totals: tuple[int, int] = (0, 0)


@dataclass
class TaskResult:
    satisfied: bool
    request: ApiRequest | None
    response: ApiResponse | None
    log: SessionLog
    total_llm_calls: int
    error: str | None = None


class _CountingLlm(LlmClient):
    """Wraps a client to accumulate call and token totals for one session."""

    def __init__(self, inner: LlmClient):
        self._inner = inner
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0

    def complete(self, messages: Sequence[ChatMessage]) -> LlmReply:
        reply = self._inner.complete(messages)
        self.calls += 1
        self.prompt_tokens += reply.prompt_tokens
        self.completion_tokens += reply.completion_tokens
        return reply


class _RecordingExecutor(ApiExecutor):
    """Wraps an executor to record each request in the log's
    ``executions`` before it is sent, and its response once that arrives."""

    def __init__(self, inner: ApiExecutor, log: SessionLog):
        self._inner = inner
        self._executions = log.executions

    def execute(self, req: ApiRequest) -> ApiResponse:
        self._executions.append((req, None))
        response = self._inner.execute(req)
        self._executions[-1] = (req, response)
        return response


SYSTEM_PREAMBLE = (
    "You complete the user's task by calling exactly one API from the"
    " documentation below. Reply with the API request in the format"
    f" APINAME(key1=value1, key2=value2) between {OPEN_MARKER} and {CLOSE_MARKER}."
)

_GENERATE_INSTRUCTION = f"Generate the API request between {OPEN_MARKER} and {CLOSE_MARKER}."


def render_doc_prompt(doc: ApiDocument) -> str:
    """Deterministic textual rendering of the documentation, in doc order."""
    blocks: list[str] = []
    for api in doc.apis:
        lines = [f"API: {api.name}", f"Description: {api.description}"]
        if api.params:
            lines.append("Parameters:")
            for p in api.params:
                presence = "required" if p.required else "optional"
                lines.append(
                    f"  {p.name} ({p.value_type.value}, {presence}): {p.description}"
                )
        if api.exceptions:
            lines.append("Exceptions:")
            for code, message in api.exceptions:
                lines.append(f"  {code}: {message}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def opening_messages(system: ChatMessage, instruction: str) -> list[ChatMessage]:
    """The conversation the first generation sees: the system turn and the
    user's instruction with the request to generate."""
    return [system, ChatMessage("user", f"{instruction}\n\n{_GENERATE_INSTRUCTION}")]


def prepare_document(doc: ApiDocument, model: SimilarityModel) -> PreparedDoc:
    """Build the per-document state every task on *doc* shares: the chunk
    index, the relevance ranker over API descriptions, the ranker over API
    names, and the system message with the rendered documentation.

    The chunk index chunks and embeds an API on its first lookup, which
    only the dynamic loop makes, for the API it just executed. Preparing
    makes one probe ``model.embed`` call (none for a doc without text), so
    an embedder that cannot answer raises here, before any task runs."""
    return PreparedDoc(
        doc,
        model,
        build_chunk_index(doc, model, CHUNK_THRESHOLD),
        model.ranker([api.description for api in doc.apis]),
        model.ranker(doc.api_names),
        ChatMessage("system", SYSTEM_PREAMBLE + "\n\n" + render_doc_prompt(doc)),
    )


def run_task(
    instruction: str,
    prepared: PreparedDoc,
    llm: LlmClient,
    executor: ApiExecutor,
    judge: ExactMatchJudge,
    config: PipelineConfig = PipelineConfig(),
    *,
    task_id: str = "task",
) -> TaskResult:
    """Run one task through the static loop and then the dynamic loop.

    The APIs relevant to the instruction are ranked once, before the first
    generation. The static loop re-scans after every regeneration and never
    contacts the executor; a request that exhausts the static budget with
    an error is not executed. Feedback is appended to the conversation, so
    each regeneration sees the history of its own mistakes.

    Every request sent to the executor is recorded in the log's
    ``executions`` as it is sent. ``request`` and ``response`` are always
    the last of them, or both ``None`` when nothing was sent; ``response``
    is ``None`` when the executor raised on that request. A task whose LLM,
    executor or embedder raises (an outage, or any fault of a pluggable
    gateway) is unsatisfied with the error, ``"<type>: <message>"``, noted,
    and keeps the log of what it did.
    """
    counting = _CountingLlm(llm)
    log = SessionLog(task_id=task_id)
    messages = opening_messages(prepared.system, instruction)
    satisfied, error = False, None
    try:
        relevant = retrieve_relevant_apis(instruction, prepared, config.k)
        for attempt in range(config.max_static + 1):
            reply = counting.complete(messages)
            messages.append(ChatMessage("assistant", reply.text))
            outcome = parse_llm_output(reply.text)
            finding = detect(outcome, relevant, prepared, config.threshold)
            event = StaticEvent(reply.text, outcome, finding)
            log.static_events.append(event)
            if finding.error_type is ErrorType.NONE or attempt == config.max_static:
                break
            event.feedback_text = render_feedback(finding)
            messages.append(ChatMessage("user", event.feedback_text))

        if finding.error_type is ErrorType.NONE:
            satisfied = run_dynamic_loop(
                outcome.request,
                prepared,
                _RecordingExecutor(executor, log),
                counting,
                judge,
                config.max_dynamic,
                static_check=lambda req: detect(
                    ParseOutcome(req), relevant, prepared, config.threshold
                ).error_type is ErrorType.NONE,
                records=log.dynamic_records,
            ).satisfied
    except Exception as exc:  # noqa: BLE001 - a gateway fault ends only this session
        error = f"{type(exc).__name__}: {exc}"
    log.token_totals = (counting.prompt_tokens, counting.completion_tokens)
    request, response = log.executions[-1] if log.executions else (None, None)
    return TaskResult(satisfied, request, response, log, counting.calls, error)


def executed_sequence(result: TaskResult) -> list[str]:
    """Canonical serializations of every request actually executed, that
    is, answered by the executor, in the order sent."""
    return [
        serialize_request(request)
        for request, response in result.log.executions
        if response is not None
    ]


@dataclass(frozen=True)
class BenchTask:
    """One dataset sample: instruction, optional truth, and its document."""

    task_id: str
    instruction: str
    doc: ApiDocument
    ground_truth: str | None = None
    script: tuple[str, ...] | None = None

    def truth_request(self) -> ApiRequest | None:
        """The parsed ground truth, or ``None`` when the task has none.
        Raises ``ValueError`` naming the task when the truth does not parse."""
        if self.ground_truth is None:
            return None
        outcome = parse_request(self.ground_truth)
        if not outcome.ok:
            raise ValueError(
                f"task {self.task_id!r}: ground truth does not parse: {self.ground_truth!r}"
            )
        return outcome.request


def _echo(name: str, args: dict) -> ApiResponse:
    return ApiResponse(200, json.dumps({"api": name, "args": str(args)}))


def echo_executor(doc: ApiDocument) -> MockApiServer:
    """Success-echo double: known APIs answer 200 with the argument dict."""
    return MockApiServer({api.name: partial(_echo, api.name) for api in doc.apis})


def task_llm(task: BenchTask, remote: LlmClient | None = None) -> LlmClient:
    """*task*'s LLM: its script in order, then *remote*, or without *remote*
    the script's last reply again. A task with no script asks *remote*, or
    without one replays its ground truth, or else a fixed non-answer."""
    if task.script:
        return ScriptedLlm(task.script, remote)
    if remote is not None:
        return remote
    if task.ground_truth is not None:
        return ScriptedLlm([f"{OPEN_MARKER}{task.ground_truth}{CLOSE_MARKER}"])
    return ScriptedLlm(["I cannot call any API."])


# The prepared documents of the latest run_benchmark call to return, by id(doc).
_kept_prepared: dict[int, PreparedDoc] = {}


def run_benchmark(
    tasks: Sequence[BenchTask],
    config: PipelineConfig = PipelineConfig(),
    *,
    llm_factory: Callable[[BenchTask], LlmClient] | None = None,
    executor_factory: Callable[[BenchTask], ApiExecutor] | None = None,
    model_factory: Callable[[ApiDocument], SimilarityModel] | None = None,
    log_dir: str | Path | None = None,
    jobs: int = 1,
    clock: Callable[[], str] | None = None,
) -> tuple[BenchmarkReport, list[TaskResult]]:
    """Run every task and aggregate a report.

    Whatever fails before the first task raises: an empty batch, *jobs*
    below 1 (``ValueError``), with *log_dir* set a task id that is
    duplicated or not a plain file name (``ValueError``; ids name the log
    files), a ground truth that does not parse (``ValueError``), a
    document that fails to prepare, or a *log_dir* that cannot be made a
    directory (``OSError``; it is made after the documents are prepared, so
    a failed prepare leaves none behind). Each distinct document is prepared
    once, before any task runs, and kept until the next call, which reuses
    it when the document and its model are the same objects (the default
    *model_factory* fits a new model each call) and drops the rest as it
    returns; a reused one still makes its probe ``embed`` call. Whatever
    fails inside a task is recorded on its :class:`TaskResult`, which is
    then unsatisfied with the error noted; the batch goes on. Logs are
    written through a single writer in task order, so reruns with
    deterministic gateways are byte-identical apart from timestamps.
    """
    if not tasks:
        raise EmptyDatasetError("no tasks to run")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if log_dir is not None:
        _check_log_names(tasks)
    truths = [task.truth_request() for task in tasks]
    llm_factory = llm_factory or task_llm
    executor_factory = executor_factory or (lambda task: echo_executor(task.doc))
    model_factory = model_factory or default_similarity

    global _kept_prepared
    prepared: dict[int, PreparedDoc] = {}
    for task in tasks:
        if id(task.doc) not in prepared:
            model = model_factory(task.doc)
            kept = _kept_prepared.get(id(task.doc))
            if kept is not None and kept.doc is task.doc and kept.model is model:
                build_chunk_index(task.doc, model, CHUNK_THRESHOLD)  # probe the embedder again
                prepared[id(task.doc)] = kept
            else:
                prepared[id(task.doc)] = prepare_document(task.doc, model)
    if log_dir is not None:
        log_path = Path(log_dir)
        log_path.mkdir(parents=True, exist_ok=True)

    def _run_one(task: BenchTask, truth: ApiRequest | None) -> TaskResult:
        try:
            return run_task(
                task.instruction,
                prepared[id(task.doc)],
                llm_factory(task),
                executor_factory(task),
                ExactMatchJudge(truth),
                config,
                task_id=task.task_id,
            )
        except Exception as exc:  # noqa: BLE001 - a gateway factory's fault ends only this task
            log = SessionLog(task_id=task.task_id)
            return TaskResult(False, None, None, log, 0, f"{type(exc).__name__}: {exc}")

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, tasks, truths))
    else:
        results = [_run_one(task, truth) for task, truth in zip(tasks, truths)]

    acc = accuracy([r.satisfied for r in results])
    token_sums = [sum(r.log.token_totals) for r in results]
    mean_tokens = sum(token_sums) / len(token_sums)
    classifications = [
        e.finding.error_type for r in results for e in r.log.static_events
    ]
    if all(t is not None for t in truths):
        process_pct = process_correctness(
            [executed_sequence(r) for r in results],
            [serialize_request(truth) for truth in truths],
        )
    else:
        process_pct = None
    report = BenchmarkReport(
        n_tasks=len(tasks),
        accuracy_pct=acc,
        process_correctness_pct=process_pct,
        mean_tokens=mean_tokens,
        overhead=overhead(mean_tokens, acc) if acc > 0 else None,
        error_histogram=error_distribution(classifications),
    )

    if log_dir is not None:
        for result in results:
            write_session_log(
                result.log, log_path / f"{result.log.task_id}.jsonl", clock=clock
            )
        write_summary(results, log_path / "summary.json")
        _write_bytes(log_path / "report.json", (report.to_json() + "\n").encode())
    _kept_prepared = prepared
    return report, results


def _check_log_names(tasks: Sequence[BenchTask]) -> None:
    """Task ids must be distinct plain file names: each names its log."""
    seen: set[str] = set()
    for task in tasks:
        task_id = task.task_id
        if task_id in ("", ".", "..") or any(c in task_id for c in "/\\\0"):
            raise ValueError(f"task id {task_id!r} is not a plain file name")
        if task_id in seen:
            raise ValueError(f"duplicate task id {task_id!r}")
        seen.add(task_id)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


# One encoder for every log line; json.dumps with options builds a new one a call.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)

# A log line with every field null, its keys in order: a phase sets the fields it fills.
_NULL_LINE = dict.fromkeys((
    "task_id", "phase", "iteration", "action", "observation", "thought",
    "error_type", "feedback", "new_action", "ts",
))


def _write_bytes(path: str | Path, data: bytes) -> None:
    """Replace the file at *path* with *data*: truncate it in place (or
    create it) and write every byte, with no text layer in between."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


def session_log_lines(
    log: SessionLog, clock: Callable[[], str] | None = None
) -> list[str]:
    """A session's JSONL event lines, static then dynamic, each phase numbered from 0."""
    now = clock or _utc_now

    def line(phase: str, iteration: int, **fields) -> str:
        return _LINE_ENCODER.encode({
            **_NULL_LINE, "task_id": log.task_id, "phase": phase,
            "iteration": iteration, **fields, "ts": now(),
        })

    lines = []
    for iteration, event in enumerate(log.static_events):
        error_type = event.finding.error_type
        lines.append(line(
            "static", iteration,
            action=(
                serialize_request(event.outcome.request)
                if event.outcome.ok
                else event.llm_output_raw
            ),
            error_type=error_type.value if error_type is not ErrorType.NONE else None,
            feedback=event.feedback_text,
        ))
    for iteration, record in enumerate(log.dynamic_records):
        message = record.error_message
        lines.append(line(
            "dynamic", iteration,
            action=serialize_request(record.action),
            observation={
                "status": record.response.status,
                "body": record.response.body,
                "error_message": message.text if message is not None else None,
            },
            thought=record.thought,
            new_action=serialize_request(record.new_action),
        ))
    return lines


def write_session_log(
    log: SessionLog, path: str | Path, clock: Callable[[], str] | None = None
) -> None:
    """Write *log* to *path* as JSONL: one JSON object per line, each line
    ending in a newline, non-ASCII text as UTF-8 (not escaped) but a lone
    surrogate as its JSON escape (``\\ud800``), which reads back the same.
    An existing file is replaced in full; a session with no events writes
    an empty file."""
    lines = session_log_lines(log, clock)
    _write_bytes(path, "\n".join([*lines, ""]).encode("utf-8", "backslashreplace"))


def write_summary(results: Sequence[TaskResult], path: str | Path) -> None:
    """Per-task verdicts consumed by the report command."""
    payload = {
        "tasks": [
            {
                "task_id": r.log.task_id,
                "satisfied": r.satisfied,
                "llm_calls": r.total_llm_calls,
                "prompt_tokens": r.log.token_totals[0],
                "completion_tokens": r.log.token_totals[1],
                "error": r.error,
            }
            for r in results
        ]
    }
    _write_bytes(path, (json.dumps(payload, indent=2) + "\n").encode())
