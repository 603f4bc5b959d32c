"""The library surface the offline benchmark (``perfbench/``) relies on.

The benchmark's own files are fixed between runs of the parent and of a
change, so a deleted or reshaped name breaks the comparison. This checks the
names and call shapes without running any workload.
"""

import inspect
import json
import sys
from pathlib import Path

from autofeedback import (
    ApiDocument,
    ApiRequest,
    ErrorType,
    ParseOutcome,
    ScriptedLlm,
    TfidfSimilarity,
    default_similarity,
    load_document,
    orchestrator,
    parse_request,
    static_scanner,
)

from autofeedback.gateways import MockApiServer

from test_gateways import route_planning_handler

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIXTURE_DOC = Path(__file__).resolve().parent / "data" / "fixture_doc.json"


def _tracing():
    # No bytecode cache is written into the benchmark's directory.
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write
    return tracing


def test_tracer_resolves_every_target_and_installs_nothing():
    tracing = _tracing()

    def current():
        values = []
        for module, path, _ in tracing.TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            values.append(vars(owner)[attr])
        return values

    before = current()
    tracer = tracing.Tracer()
    assert len(tracing.TARGETS) == 21
    assert len(tracer.stats) == 21
    assert all(a is b for a, b in zip(current(), before))


def test_call_shapes_used_by_the_benchmark():
    placeholder = object()
    inspect.signature(static_scanner.classify_against_truth).bind(
        placeholder, placeholder, placeholder, placeholder, placeholder
    )
    inspect.signature(orchestrator.run_benchmark).bind(
        placeholder,
        placeholder,
        llm_factory=placeholder,
        executor_factory=placeholder,
        model_factory=placeholder,
        log_dir=placeholder,
        jobs=2,
    )


def test_classify_runs_on_the_benchmark_argument_types():
    # The classify workload loads each doc from its file, fits the default
    # model, parses the truth and the reply, and passes the threshold 0.5.
    doc = load_document(FIXTURE_DOC)
    model = default_similarity(doc)
    truth = parse_request('list_medicines(name="aspirin")').request
    outcome = orchestrator.parse_llm_output(
        'I will now call medicines_list(name="aspirin") and report back.'
    )
    assert isinstance(doc, ApiDocument) and isinstance(model, TfidfSimilarity)
    assert isinstance(truth, ApiRequest) and isinstance(outcome, ParseOutcome)
    label = static_scanner.classify_against_truth(outcome, truth, doc, model, 0.5)
    assert label is ErrorType.E2_3


def test_a_session_carries_every_field_the_benchmark_checks(doc, tmp_path, monkeypatch):
    # perfbench times each session through a patched ``orchestrator.run_task``
    # that takes ``task_id`` as a keyword, then checks the fields read here.
    reversed_ = 'route_planning(origin="116.4,39.9", dest="121.5,31.2")'
    correct = 'route_planning(origin="39.9,116.4", dest="31.2,121.5")'
    script = [f"<<API>>{reversed_}<</API>>", f"Thought: swap.\n<<API>>{correct}<</API>>"]
    llm = ScriptedLlm(script)
    server = MockApiServer({"route_planning": route_planning_handler})
    timed, run_task = [], orchestrator.run_task

    def timed_run_task(*args, task_id, **kwargs):
        timed.append(task_id)
        return run_task(*args, task_id=task_id, **kwargs)

    monkeypatch.setattr(orchestrator, "run_task", timed_run_task)
    task = orchestrator.BenchTask(
        "s", "Plan a driving route between two map positions.", doc, correct, tuple(script)
    )
    report, [result] = orchestrator.run_benchmark(
        [task],
        orchestrator.PipelineConfig(),
        llm_factory=lambda task: llm,
        executor_factory=lambda task: server,
        model_factory=default_similarity,
        log_dir=tmp_path,
        jobs=1,
    )
    assert timed == ["s"]
    assert result.error is None and result.satisfied
    assert result.total_llm_calls == llm.calls == 2 and len(server.executed) == 2
    assert result.response is not None and result.response.status == 200
    log = result.log
    assert [e.finding.error_type.value for e in log.static_events] == ["none"]
    [record] = log.dynamic_records
    assert "Longitude precedes latitude" in record.error_message.text
    assert "info_code:20000" in record.response.body
    prompts = sum(len(m.content.split()) for p in llm.received_prompts for m in p)
    assert sum(log.token_totals) == prompts + sum(len(r.split()) for r in script)
    lines = (tmp_path / "s.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(log.static_events) + len(log.dynamic_records)
    assert all(json.loads(line)["task_id"] == "s" for line in lines)
    assert report.accuracy_pct == 100.0
    assert {t.value: n for t, n in report.error_histogram.items()} == {"none": 1}
