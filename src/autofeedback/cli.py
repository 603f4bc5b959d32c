"""Command-line entry point.

Commands: ``run`` one task, ``bench`` a dataset, ``classify`` generated
requests against ground truth, ``report`` digest session logs. Each command
takes only the settings it reads. A setting is a flag (``--max-static``)
and a key of the config file (``max_static``; one flat JSON object), so a
command's config keys mirror its setting flags; a flag beats the file, the
file beats the default. Flags naming one invocation's inputs (``--script``,
``--task-id``, ``--out``, ...) have no config key.

Exit codes: 0 ok/satisfied, 1 unsatisfied, 2 configuration error,
3 transport error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .doc_model import ApiDocument, load_document
from .errors import AutoFeedbackError, SchemaError, TransportError
from .gateways import ChatMessage, HttpApiExecutor, HttpLlmClient
from .metrics import BenchmarkReport, error_distribution, error_distribution_percentages
from .orchestrator import (
    BenchTask,
    PipelineConfig,
    TaskResult,
    opening_messages,
    run_benchmark,
    system_message,
)
from .request_codec import parse_llm_output, serialize_request
from .retrieval import RemoteEmbeddingSimilarity, default_similarity
from .static_scanner import ErrorType, classify_against_truth

API_KEY_ENV = "AUTOFEEDBACK_LLM_KEY"
EMBED_KEY_ENV = "AUTOFEEDBACK_EMBED_KEY"

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3


class ConfigError(Exception):
    pass


# What a JSON reader treats as an unreadable file or line: a file that cannot
# be opened, text that is not UTF-8 or not JSON, an integer past Python's
# digit limit, or nesting too deep to parse.
_UNREADABLE = (OSError, ValueError, RecursionError)


# One declaration per setting: (type, default, help). A setting is a flag
# and a config-file key of each command that reads it.
_SETTINGS = {
    "doc": (str, None, "API documentation JSON file"),
    "dataset": (str, None, "JSONL dataset, one task per line"),
    "llm": (str, "scripted", "LLM client"),
    "llm_base_url": (str, None, "base URL of the http LLM"),
    "model": (str, "default", "model name for the http LLM"),
    "embedder_base_url": (str, None, "remote embedding service; default is local TF-IDF"),
    "embedder_model": (str, "default", "model name for the remote embedder"),
    "executor": (str, "mock", "API executor"),
    "executor_base_url": (str, None, "base URL of the http executor"),
    "k": (int, PipelineConfig.k, "relevant APIs kept per instruction"),
    "threshold": (float, PipelineConfig.threshold, "similarity a name match must beat"),
    "max_static": (int, PipelineConfig.max_static, "static loop budget"),
    "max_dynamic": (int, PipelineConfig.max_dynamic, "dynamic loop budget"),
    "jobs": (int, 1, "worker threads"),
    "log_dir": (str, "logs", "session log directory"),
}
_CHOICES = {"llm": ("scripted", "http"), "executor": ("mock", "http")}
_JSON_TYPES = {str: "string", int: "integer", float: "number"}

_MODELS = ("llm", "llm_base_url", "model", "embedder_base_url", "embedder_model")
_EXECUTOR = ("executor", "executor_base_url")
_PIPELINE = tuple(f.name for f in fields(PipelineConfig))
_COMMANDS = {  # command: (help, the settings it reads)
    "run": ("run one task", ("doc", *_MODELS, *_EXECUTOR, *_PIPELINE, "log_dir")),
    "bench": (
        "run a JSONL dataset",
        ("doc", "dataset", *_MODELS, *_EXECUTOR, *_PIPELINE, "jobs", "log_dir"),
    ),
    "classify": (
        "label outputs against ground truth", ("doc", "dataset", *_MODELS, "threshold")
    ),
    "report": ("digest session logs", ("log_dir",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autofeedback",
        description="Feedback-driven API request generation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (command_help, settings) in _COMMANDS.items():
        p = commands[command] = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="flat JSON file of settings keyed by flag name")
        for name in settings:
            kind, _default, setting_help = _SETTINGS[name]
            p.add_argument(
                "--" + name.replace("_", "-"), dest=name, type=kind,
                choices=_CHOICES.get(name), help=setting_help,
            )

    run_p = commands["run"]
    run_p.add_argument("instruction")
    run_p.add_argument("--script", action="append", default=None,
                       help="scripted LLM reply (repeatable)")
    run_p.add_argument("--script-file", help="JSON list of scripted replies")
    run_p.add_argument("--ground-truth", dest="ground_truth",
                       help="expected request for the exact-match judge")
    run_p.add_argument("--task-id", dest="task_id", default="task")
    commands["classify"].add_argument("--out", help="write histogram JSON here")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """The command's settings: flag > config file > default."""
    names = _COMMANDS[args.command][1]
    values = {name: _SETTINGS[name][1] for name in names}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except _UNREADABLE as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold one JSON object")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in values:
                raise ConfigError(
                    f"config key {key!r} in {args.config} is not a setting of {args.command}"
                )
            if value is None:
                continue
            kind = _SETTINGS[key][0]
            # A float setting takes any JSON number; no setting takes a boolean.
            if isinstance(value, bool) or not isinstance(
                value, (int, float) if kind is float else kind
            ):
                raise ConfigError(f"config key {key!r} must be a JSON {_JSON_TYPES[kind]}")
            try:
                values[key] = kind(value)
            except OverflowError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
            if key in _CHOICES and values[key] not in _CHOICES[key]:
                raise ConfigError(f"config key {key!r} must be one of {_CHOICES[key]}")
    for name in names:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    return values


def _pipeline_config(values: dict) -> PipelineConfig:
    try:
        return PipelineConfig(**{name: values[name] for name in _PIPELINE if name in values})
    except ValueError as exc:
        raise ConfigError(f"invalid pipeline settings: {exc}") from exc


def _load_doc(values: dict) -> ApiDocument:
    path = values["doc"]
    if not path:
        raise ConfigError("--doc is required")
    if not Path(path).exists():
        raise ConfigError(f"documentation file not found: {path}")
    try:
        return load_document(Path(path))
    except (OSError, SchemaError) as exc:
        raise ConfigError(f"bad documentation file {path}: {exc}") from exc


def _similarity_factory(values: dict):
    base_url = values["embedder_base_url"]
    if not base_url:
        return default_similarity
    key = os.environ.get(EMBED_KEY_ENV) or os.environ.get(API_KEY_ENV, "")
    shared = RemoteEmbeddingSimilarity(base_url, values["embedder_model"], key)
    return lambda doc: shared


def _http_llm(values: dict) -> HttpLlmClient:
    base_url = values["llm_base_url"]
    if not base_url:
        raise ConfigError("--llm http requires --llm-base-url")
    key = os.environ.get(API_KEY_ENV, "")
    if not key:
        raise ConfigError(f"--llm http requires the {API_KEY_ENV} environment variable")
    return HttpLlmClient(base_url, values["model"], key)


def _executor_factory(values: dict):
    """The factory of the http executor, or ``None`` for the echo double."""
    if values["executor"] != "http":
        return None
    base_url = values["executor_base_url"]
    if not base_url:
        raise ConfigError("--executor http requires --executor-base-url")
    return lambda task: HttpApiExecutor(
        base_url, {api.name: ("POST", f"/{api.name}") for api in task.doc.apis}
    )


def _is_strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _load_dataset(values: dict, base_doc: ApiDocument | None) -> list[BenchTask]:
    path = values["dataset"]
    if not path:
        raise ConfigError("--dataset is required")
    dataset_path = Path(path)
    if not dataset_path.exists():
        raise ConfigError(f"dataset file not found: {path}")
    try:
        lines = dataset_path.read_text(encoding="utf-8").splitlines()
    except _UNREADABLE as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    docs_cache: dict[str, ApiDocument] = {}
    tasks: list[BenchTask] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            task_id = raw["id"]
            instruction = raw["instruction"]
        except (*_UNREADABLE, KeyError, TypeError) as exc:
            raise ConfigError(f"malformed dataset line {line_no}: {exc}") from exc
        if not isinstance(task_id, str):
            raise ConfigError(f"dataset line {line_no}: id must be a string")
        if not isinstance(instruction, str):
            raise ConfigError(f"dataset line {line_no}: instruction must be a string")
        doc_ref = raw.get("doc")
        ground_truth = raw.get("ground_truth")
        script = raw.get("script")
        if not isinstance(doc_ref, (str, type(None))):
            raise ConfigError(f"dataset line {line_no}: doc must be a string")
        if _is_strings(ground_truth) and len(ground_truth) == 1:
            ground_truth = ground_truth[0]
        if not isinstance(ground_truth, (str, type(None))):
            raise ConfigError(
                f"dataset line {line_no}: task {task_id!r}: ground_truth must be"
                " a string, a list of one string or null"
            )
        if not (script is None or _is_strings(script)):
            raise ConfigError(f"dataset line {line_no}: script must be a list of strings")
        if doc_ref:
            doc_path = Path(doc_ref)
            if not doc_path.is_absolute():
                doc_path = dataset_path.parent / doc_path
            key = str(doc_path)
            if key not in docs_cache:
                try:
                    docs_cache[key] = load_document(doc_path)
                except (OSError, SchemaError) as exc:
                    raise ConfigError(
                        f"dataset line {line_no}: cannot load doc {doc_ref}: {exc}"
                    ) from exc
            doc = docs_cache[key]
        elif base_doc is not None:
            doc = base_doc
        else:
            raise ConfigError(f"dataset line {line_no}: no doc given and no --doc")
        if script is not None:
            script = tuple(script)
        tasks.append(BenchTask(task_id, instruction, doc, ground_truth, script))
    if not tasks:
        raise ConfigError(f"dataset {path} holds no tasks")
    return tasks


def _run_tasks(
    values: dict, config: PipelineConfig, tasks: list[BenchTask]
) -> tuple[BenchmarkReport, list[TaskResult]]:
    """``run_benchmark`` over *tasks* with the command's gateways, log
    directory and worker count."""
    llm_factory = None
    if values["llm"] == "http":
        client = _http_llm(values)
        llm_factory = lambda task: client  # noqa: E731 - shared stateless client
    try:
        return run_benchmark(
            tasks,
            config,
            llm_factory=llm_factory,
            executor_factory=_executor_factory(values),
            model_factory=_similarity_factory(values),
            log_dir=values["log_dir"],
            jobs=values.get("jobs", 1),
        )
    except ValueError as exc:  # a task id or a ground truth the batch cannot use
        where = f"dataset {values['dataset']}: " if "dataset" in values else ""
        raise ConfigError(where + str(exc)) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    values = _merge_config(args)
    config = _pipeline_config(values)
    doc = _load_doc(values)

    script = list(args.script or [])
    if args.script_file:
        try:
            replies = json.loads(Path(args.script_file).read_text(encoding="utf-8"))
        except _UNREADABLE as exc:
            raise ConfigError(f"cannot read script file: {exc}") from exc
        if not _is_strings(replies):
            raise ConfigError("script file must hold a JSON list of strings")
        script.extend(replies)
    if values["llm"] != "http" and not script:
        raise ConfigError("scripted LLM needs --script or --script-file")

    task = BenchTask(
        args.task_id, args.instruction, doc, args.ground_truth or None, tuple(script)
    )
    _report, [result] = _run_tasks(values, config, [task])

    status = "satisfied" if result.satisfied else "unsatisfied"
    print(f"task {args.task_id}: {status}")
    print(f"  llm calls: {result.total_llm_calls}")
    print(f"  tokens: prompt={result.log.token_totals[0]}"
          f" completion={result.log.token_totals[1]}")
    if result.request is not None:
        print(f"  final request: {serialize_request(result.request)}")
    if result.response is not None:
        print(f"  final response: status={result.response.status}")
    if result.error is not None:
        print(f"  error: {result.error}")
    print(f"  log: {Path(values['log_dir']) / (args.task_id + '.jsonl')}")
    return EXIT_OK if result.satisfied else EXIT_UNSATISFIED


def _cmd_bench(args: argparse.Namespace) -> int:
    values = _merge_config(args)
    if values["jobs"] < 1:
        raise ConfigError(f"--jobs must be >= 1, got {values['jobs']}")
    config = _pipeline_config(values)
    base_doc = _load_doc(values) if values["doc"] else None
    tasks = _load_dataset(values, base_doc)
    report, _results = _run_tasks(values, config, tasks)
    print(report.to_table())
    print(f"report: {Path(values['log_dir']) / 'report.json'}")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    values = _merge_config(args)
    base_doc = _load_doc(values) if values["doc"] else None
    tasks = _load_dataset(values, base_doc)
    threshold = _pipeline_config(values).threshold
    http = values["llm"] == "http"
    # Every sample is checked before the first LLM call or model build.
    truths = []
    for task in tasks:
        try:
            truth = task.truth_request()
        except ValueError as exc:
            raise ConfigError(f"dataset {values['dataset']}: {exc}") from exc
        if truth is None:
            raise ConfigError(f"dataset sample {task.task_id!r} has no ground truth")
        if truth.name not in task.doc.by_name:
            raise ConfigError(
                f"dataset sample {task.task_id!r}: ground-truth API {truth.name!r}"
                " is not in its document"
            )
        if not task.script and not http:
            raise ConfigError(
                f"dataset sample {task.task_id!r} has no recorded output (script)"
                " and the LLM is scripted"
            )
        truths.append(truth)
    llm = None if all(task.script for task in tasks) else _http_llm(values)
    similarity_factory = _similarity_factory(values)

    systems: dict[int, ChatMessage] = {}
    models: dict[int, object] = {}
    labels: list[ErrorType] = []
    for task, truth in zip(tasks, truths):
        key = id(task.doc)
        if task.script:
            generated_text = task.script[0]
        else:
            # The same opening turn as the pipeline's first generation.
            if key not in systems:
                systems[key] = system_message(task.doc)
            generated_text = llm.complete(
                opening_messages(systems[key], task.instruction)
            ).text
        if key not in models:
            models[key] = similarity_factory(task.doc)
        labels.append(
            classify_against_truth(
                parse_llm_output(generated_text),
                truth,
                task.doc,
                models[key],
                threshold,
            )
        )

    histogram = error_distribution(labels)
    percentages = error_distribution_percentages(histogram)
    payload = {
        "n_samples": len(labels),
        "counts": {t.value: c for t, c in sorted(histogram.items(), key=lambda i: i[0].value)},
        "percentages": {
            t.value: round(p, 2)
            for t, p in sorted(percentages.items(), key=lambda i: i[0].value)
        },
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    values = _merge_config(args)
    log_dir = Path(values["log_dir"])
    if not log_dir.is_dir():
        print(f"no sessions under {log_dir}")
        return EXIT_OK

    summary_path = log_dir / "summary.json"
    verdicts: dict[str, bool] = {}
    if summary_path.exists():
        try:
            entries = json.loads(summary_path.read_text(encoding="utf-8")).get("tasks", [])
        except (*_UNREADABLE, AttributeError):
            entries = None
        if isinstance(entries, list) and all(isinstance(e, dict) for e in entries):
            for entry in entries:
                verdicts[str(entry.get("task_id"))] = bool(entry.get("satisfied"))
        else:
            print(f"warning: unreadable summary {summary_path}", file=sys.stderr)

    sessions: dict[str, list[dict]] = {}
    for path in sorted(log_dir.glob("*.jsonl")):
        events = []
        try:
            lines = path.read_bytes().splitlines()
        except OSError:
            lines = []
            print(f"warning: skipping {path.name}", file=sys.stderr)
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line.decode("utf-8"))
            except _UNREADABLE:
                event = None
            # Static events carry a null observation, dynamic ones an object.
            if isinstance(event, dict) and isinstance(event.get("observation") or {}, dict):
                events.append(event)
            else:
                print(f"warning: skipping {path.name}:{line_no}", file=sys.stderr)
        if events:
            sessions[path.stem] = events
    if not sessions:
        print(f"no sessions under {log_dir}")
        return EXIT_OK

    def sort_key(task_id: str):
        # Unsatisfied sessions first: those are the ones a human must pick up.
        return (verdicts.get(task_id, False), task_id)

    for task_id in sorted(sessions, key=sort_key):
        verdict = verdicts.get(task_id)
        tag = {True: "satisfied", False: "UNSATISFIED", None: "unknown"}[verdict]
        print(f"== {task_id} [{tag}]")
        for event in sessions[task_id]:
            phase = event.get("phase", "?")
            iteration = event.get("iteration", "?")
            if phase == "static":
                error = event.get("error_type") or "clean"
                print(f"  static #{iteration}: {error}")
                if event.get("feedback"):
                    print(f"    feedback: {event['feedback']}")
            else:
                obs = event.get("observation") or {}
                print(
                    f"  dynamic #{iteration}: {event.get('action')}"
                    f" -> status={obs.get('status')}"
                )
                if obs.get("error_message"):
                    print(f"    retrieved: {obs['error_message']}")
                if event.get("thought"):
                    print(f"    thought: {event['thought']}")
                if event.get("new_action"):
                    print(f"    next: {event['new_action']}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "bench": _cmd_bench,
        "classify": _cmd_classify,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except AutoFeedbackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
