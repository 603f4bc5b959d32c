import json
from collections import Counter

import pytest

from autofeedback import (
    ApiResponse,
    BenchTask,
    ErrorType,
    ExactMatchJudge,
    PipelineConfig,
    ScriptedLlm,
    load_document,
    parse_request,
    prepare_document,
    render_doc_prompt,
    run_benchmark,
    run_task,
    serialize_request,
)
from autofeedback.errors import EmptyDatasetError, TransportError
from autofeedback import orchestrator
from autofeedback.gateways import LlmClient, MockApiServer
from autofeedback.retrieval import SimilarityModel, default_similarity
from autofeedback.orchestrator import (
    executed_sequence,
    session_log_lines,
    write_session_log,
)

from conftest import FIXTURE_DOC
from test_gateways import route_planning_handler

LOGIN_TRUTH = 'userLogin(username="kate", days=3)'
LOGIN_INSTRUCTION = "Log me into the system and start my session."
ROUTE_CORRECT = 'route_planning(origin="39.9,116.4", dest="31.2,121.5")'
ROUTE_REVERSED = 'route_planning(origin="116.4,39.9", dest="121.5,31.2")'
ROUTE_INSTRUCTION = "Plan a driving route between two map positions."


def req(text):
    outcome = parse_request(text)
    assert outcome.ok
    return outcome.request


@pytest.fixture
def executor():
    return MockApiServer(
        {
            "userLogin": lambda args: ApiResponse(200, '{"session": "ok"}'),
            "route_planning": route_planning_handler,
        }
    )


def wrap(text):
    return f"<<API>>{text}<</API>>"


def test_happy_path_single_call(prepared, executor):
    llm = ScriptedLlm([wrap(LOGIN_TRUTH)])
    judge = ExactMatchJudge(ground_truth=req(LOGIN_TRUTH))
    result = run_task(LOGIN_INSTRUCTION, prepared, llm, executor, judge)
    assert result.satisfied
    assert result.total_llm_calls == 1
    assert len(result.log.static_events) == 1
    assert result.log.static_events[0].finding.error_type is ErrorType.NONE
    assert result.log.dynamic_records == []
    assert len(executor.executed) == 1


def test_static_convergence_user_login(prepared, executor):
    llm = ScriptedLlm(
        [wrap('user_login(username="kate", days=3)'), wrap(LOGIN_TRUTH)]
    )
    judge = ExactMatchJudge(ground_truth=req(LOGIN_TRUTH))
    result = run_task(LOGIN_INSTRUCTION, prepared, llm, executor, judge)
    assert result.satisfied
    assert result.total_llm_calls == 2
    assert len(executor.executed) == 1
    events = result.log.static_events
    assert [e.finding.error_type for e in events] == [ErrorType.E2_2, ErrorType.NONE]
    feedback = events[0].feedback_text
    assert feedback is not None
    assert "user_login" in feedback and "userLogin" in feedback
    assert "Please regenerate the API request between <<API>> and <</API>>." in feedback
    # the rendered feedback went to the LLM verbatim as the next user turn
    second_prompt = llm.received_prompts[1]
    assert second_prompt[-1].content == feedback


def test_static_exhaustion_never_executes(prepared, executor):
    llm = ScriptedLlm(["there is no api call here"])
    judge = ExactMatchJudge()
    result = run_task(
        LOGIN_INSTRUCTION, prepared, llm, executor, judge,
        PipelineConfig(max_static=3),
    )
    assert not result.satisfied
    assert result.total_llm_calls == 4  # initial + three retries
    assert executor.executed == []
    assert len(result.log.static_events) == 4
    assert all(
        e.finding.error_type is ErrorType.E1 for e in result.log.static_events
    )


def test_static_then_dynamic_combined(prepared, executor):
    llm = ScriptedLlm(
        [
            wrap('routePlanning(origin="116.4,39.9", dest="121.5,31.2")'),
            wrap(ROUTE_REVERSED),
            f"Thought: longitude came first; swapping.\n{wrap(ROUTE_CORRECT)}",
        ]
    )
    judge = ExactMatchJudge(ground_truth=req(ROUTE_CORRECT))
    result = run_task(ROUTE_INSTRUCTION, prepared, llm, executor, judge)
    assert result.satisfied
    assert result.total_llm_calls == 3
    assert [e.finding.error_type for e in result.log.static_events] == [
        ErrorType.E2_2,
        ErrorType.NONE,
    ]
    assert len(result.log.dynamic_records) == 1
    record = result.log.dynamic_records[0]
    assert record.error_message is not None
    assert "Longitude precedes latitude" in record.error_message.text
    assert serialize_request(result.request) == ROUTE_CORRECT
    assert len(executor.executed) == 2


def test_executor_outage_keeps_dynamic_records(prepared, tmp_path):
    executions = []

    def flaky(args):
        executions.append(args)
        if len(executions) > 1:
            raise TransportError("down")
        return route_planning_handler(args)

    llm = ScriptedLlm(
        [wrap(ROUTE_REVERSED), f"Thought: swap the coordinates.\n{wrap(ROUTE_CORRECT)}"]
    )
    judge = ExactMatchJudge(ground_truth=req(ROUTE_CORRECT))
    executor = MockApiServer({"route_planning": flaky})
    result = run_task(ROUTE_INSTRUCTION, prepared, llm, executor, judge)
    assert result.error == "down"
    assert result.total_llm_calls == 2
    [record] = result.log.dynamic_records
    assert serialize_request(record.new_action) == ROUTE_CORRECT
    path = tmp_path / "outage.jsonl"
    write_session_log(result.log, path)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [line["phase"] for line in lines] == ["static", "dynamic"]
    assert lines[1]["action"] == ROUTE_REVERSED
    assert lines[1]["new_action"] == ROUTE_CORRECT
    # The corrected request was sent but never answered.
    assert executed_sequence(result) == [ROUTE_REVERSED]


def test_llm_outage_after_a_correction_keeps_it_executed(prepared):
    class FailingThirdCall(LlmClient):
        def __init__(self):
            self.replies = [wrap(ROUTE_REVERSED), f"Thought: retry.\n{wrap(ROUTE_REVERSED)}"]

        def complete(self, messages):
            if not self.replies:
                raise TransportError("llm down")
            return ScriptedLlm([self.replies.pop(0)]).complete(messages)

    executor = MockApiServer({"route_planning": route_planning_handler})
    judge = ExactMatchJudge(ground_truth=req(ROUTE_CORRECT))
    result = run_task(ROUTE_INSTRUCTION, prepared, FailingThirdCall(), executor, judge)
    assert result.error == "llm down"
    assert len(executor.executed) == 2
    assert executed_sequence(result) == [ROUTE_REVERSED, ROUTE_REVERSED]


class _CountingModel(SimilarityModel):
    """Delegates to TF-IDF and counts ``embed`` and ``score`` calls; with
    ``down`` set, ``embed`` raises as an unreachable embedder does."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = Counter()
        self.down = False

    def embed(self, text):
        self.calls["embed"] += 1
        if self.down:
            raise TransportError("embedder down")
        return self._inner.embed(text)

    def score(self, text_a, text_b):
        self.calls["score"] += 1
        return self._inner.score(text_a, text_b)


@pytest.mark.parametrize("down", ["embedder", "llm"])
def test_outage_in_the_dynamic_loop_keeps_the_executed_request(doc, down):
    model = _CountingModel(default_similarity(doc))
    prepared = prepare_document(doc, model, 0.3)
    model.down = down == "embedder"
    script = ScriptedLlm([wrap(ROUTE_REVERSED), f"Thought: swap.\n{wrap(ROUTE_CORRECT)}"])

    class Llm(LlmClient):
        def complete(self, messages):
            if down == "llm" and script.calls == 1:
                raise TransportError("llm down")
            return script.complete(messages)

    server = MockApiServer({"route_planning": route_planning_handler})
    judge = ExactMatchJudge(ground_truth=req(ROUTE_CORRECT))
    result = run_task(ROUTE_INSTRUCTION, prepared, Llm(), server, judge)
    assert result.error == f"{down} down"
    assert not result.satisfied
    assert len(server.executed) == 1
    assert serialize_request(result.request) == ROUTE_REVERSED
    assert result.response is not None and result.response.body == "info_code:20000"
    assert executed_sequence(result) == [ROUTE_REVERSED]


def test_executor_outage_after_a_correction_ends_on_the_unanswered_request(prepared):
    def flaky(args):
        if args["origin"] == "39.9,116.4":
            raise TransportError("executor down")
        return route_planning_handler(args)

    server = MockApiServer({"route_planning": flaky})
    llm = ScriptedLlm([wrap(ROUTE_REVERSED), f"Thought: swap.\n{wrap(ROUTE_CORRECT)}"])
    judge = ExactMatchJudge(ground_truth=req(ROUTE_CORRECT))
    result = run_task(ROUTE_INSTRUCTION, prepared, llm, server, judge)
    assert result.error == "executor down"
    assert serialize_request(result.request) == ROUTE_CORRECT
    assert result.response is None
    assert executed_sequence(result) == [ROUTE_REVERSED]


def test_prepare_defers_chunking_to_the_executed_api(doc, executor):
    model = _CountingModel(default_similarity(doc))
    prepared = prepare_document(doc, model, 0.3)
    assert model.calls == {"embed": 1}
    assert prepared.index._chunks == {}
    llm = ScriptedLlm([wrap(ROUTE_REVERSED), f"Thought: swap.\n{wrap(ROUTE_CORRECT)}"])
    judge = ExactMatchJudge(ground_truth=req(ROUTE_CORRECT))
    result = run_task(ROUTE_INSTRUCTION, prepared, llm, executor, judge)
    assert result.satisfied
    assert list(prepared.index._chunks) == ["route_planning"]


def test_run_task_rejects_doc_prepared_for_other_chunk_threshold(doc, model):
    prepared = prepare_document(doc, model, 0.4)
    with pytest.raises(ValueError, match="chunk_threshold"):
        run_task(
            LOGIN_INSTRUCTION, prepared, ScriptedLlm([wrap(LOGIN_TRUTH)]),
            MockApiServer({}), ExactMatchJudge(), PipelineConfig(chunk_threshold=0.3),
        )


def test_budget_law_with_adversarial_llm(prepared, executor):
    config = PipelineConfig(max_static=3, max_dynamic=2)
    llm = ScriptedLlm(["nothing useful at all"])
    judge = ExactMatchJudge(ground_truth=req(LOGIN_TRUTH))
    result = run_task(LOGIN_INSTRUCTION, prepared, llm, executor, judge, config)
    assert not result.satisfied
    assert result.total_llm_calls <= 1 + config.max_static + 2 * config.max_dynamic
    assert len(executor.executed) <= 1 + config.max_dynamic


def test_budget_law_valid_but_wrong_request(prepared, executor):
    config = PipelineConfig(max_static=3, max_dynamic=2)
    llm = ScriptedLlm([wrap('userLogin(username="bob", days=9)')])
    judge = ExactMatchJudge(ground_truth=req(LOGIN_TRUTH))
    result = run_task(LOGIN_INSTRUCTION, prepared, llm, executor, judge, config)
    assert not result.satisfied
    assert result.total_llm_calls <= 1 + config.max_static + 2 * config.max_dynamic
    assert len(executor.executed) == 1 + config.max_dynamic
    assert len(result.log.dynamic_records) == 2


def test_zero_budgets_single_shot(prepared, executor):
    config = PipelineConfig(max_static=0, max_dynamic=0)
    llm = ScriptedLlm([wrap(LOGIN_TRUTH)])
    judge = ExactMatchJudge(ground_truth=req(LOGIN_TRUTH))
    result = run_task(LOGIN_INSTRUCTION, prepared, llm, executor, judge, config)
    assert result.satisfied
    assert result.total_llm_calls == 1
    assert len(executor.executed) == 1


def test_zero_budgets_single_shot_unsatisfied(prepared, executor):
    config = PipelineConfig(max_static=0, max_dynamic=0)
    llm = ScriptedLlm(["no api"])
    judge = ExactMatchJudge()
    result = run_task(LOGIN_INSTRUCTION, prepared, llm, executor, judge, config)
    assert not result.satisfied
    assert result.total_llm_calls == 1
    assert len(executor.executed) <= 1


def test_token_totals_accumulate(prepared, executor):
    llm = ScriptedLlm(["one two three", wrap(LOGIN_TRUTH)])
    judge = ExactMatchJudge(ground_truth=req(LOGIN_TRUTH))
    result = run_task(LOGIN_INSTRUCTION, prepared, llm, executor, judge)
    prompt_total, completion_total = result.log.token_totals
    assert prompt_total > 0
    assert completion_total == 3 + len(wrap(LOGIN_TRUTH).split())


# -- doc prompt rendering ------------------------------------------------------

def test_doc_prompt_header_and_exception_lines(doc):
    text = render_doc_prompt(doc)
    assert text.count("API: route_planning") == 1
    assert "  20000: Longitude precedes latitude." in text
    assert "  username (string, required): Account name of the user logging in." in text
    assert "  units (string, optional): Measurement units, metric or imperial." in text


def test_doc_prompt_empty_params_renders_no_parameter_lines():
    from autofeedback import load_document

    doc = load_document(
        json.dumps(
            {"apis": [{"name": "ping", "description": "Ping.", "parameters": [],
                       "exceptions": []}]}
        )
    )
    text = render_doc_prompt(doc)
    assert "Parameters:" not in text
    assert text.splitlines()[0] == "API: ping"


# -- benchmark ------------------------------------------------------------------

def make_tasks(doc):
    tasks = []
    for i in range(7):
        tasks.append(
            BenchTask(
                f"ok-{i}", LOGIN_INSTRUCTION, doc, ground_truth=LOGIN_TRUTH,
                script=(wrap(LOGIN_TRUTH),),
            )
        )
    for i in range(3):
        tasks.append(
            BenchTask(
                f"bad-{i}", LOGIN_INSTRUCTION, doc, ground_truth=LOGIN_TRUTH,
                script=("no api call",),
            )
        )
    return tasks


def test_benchmark_accuracy_seventy(doc):
    report, results = run_benchmark(make_tasks(doc))
    assert report.n_tasks == 10
    assert report.accuracy_pct == pytest.approx(70.0)
    assert report.overhead == pytest.approx(report.mean_tokens / 70.0)
    assert sum(1 for r in results if r.satisfied) == 7


def test_benchmark_empty_dataset_raises():
    with pytest.raises(EmptyDatasetError):
        run_benchmark([])


def test_benchmark_rerun_identical(doc, tmp_path):
    clock = lambda: "2024-01-01T00:00:00+00:00"  # noqa: E731
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    report_a, _ = run_benchmark(make_tasks(doc), log_dir=dir_a, clock=clock)
    report_b, _ = run_benchmark(make_tasks(doc), log_dir=dir_b, clock=clock)
    assert report_a == report_b
    for name in sorted(p.name for p in dir_a.iterdir()):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_benchmark_writes_logs_and_report(doc, tmp_path):
    report, results = run_benchmark(make_tasks(doc), log_dir=tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "ok-0.jsonl").exists()
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["accuracy_pct"] == 70.0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["tasks"]) == 10


def test_benchmark_process_correctness_exact(doc):
    report, _ = run_benchmark(make_tasks(doc))
    assert report.process_correctness_pct == pytest.approx(70.0)


def test_benchmark_parallel_matches_sequential(doc):
    sequential, _ = run_benchmark(make_tasks(doc), jobs=1)
    parallel, _ = run_benchmark(make_tasks(doc), jobs=4)
    assert sequential == parallel


def test_benchmark_parallel_dynamic_fixes_match_sequential(doc):
    tasks = [
        BenchTask(
            f"route-{i}", ROUTE_INSTRUCTION, doc, ground_truth=ROUTE_CORRECT,
            script=(wrap(ROUTE_REVERSED), f"Thought: swap.\n{wrap(ROUTE_CORRECT)}"),
        )
        for i in range(12)
    ] + make_tasks(doc)

    def run(jobs):
        report, results = run_benchmark(
            tasks,
            executor_factory=lambda task: MockApiServer(
                {"route_planning": route_planning_handler,
                 "userLogin": lambda args: ApiResponse(200, '{"session": "ok"}')}
            ),
            jobs=jobs,
        )
        verdicts = [
            (
                r.satisfied,
                executed_sequence(r),
                [rec.error_message.text for rec in r.log.dynamic_records],
                session_log_lines(r.log, clock=lambda: "t"),
            )
            for r in results
        ]
        return report, verdicts

    sequential, parallel = run(1), run(4)
    assert sequential == parallel
    assert sum(len(v[2]) for v in sequential[1]) == 12


def test_benchmark_task_error_is_contained(doc):
    class BoomLlm:
        def complete(self, messages):
            raise RuntimeError("boom")

    tasks = [
        BenchTask("boom", LOGIN_INSTRUCTION, doc, ground_truth=LOGIN_TRUTH),
        BenchTask(
            "fine", LOGIN_INSTRUCTION, doc, ground_truth=LOGIN_TRUTH,
            script=(wrap(LOGIN_TRUTH),),
        ),
    ]
    report, results = run_benchmark(
        tasks,
        llm_factory=lambda t: BoomLlm() if t.task_id == "boom" else ScriptedLlm(list(t.script)),
    )
    assert report.accuracy_pct == 50.0
    assert results[0].error is not None and not results[0].satisfied
    assert results[1].satisfied


def test_benchmark_prepares_each_document_once(doc, monkeypatch):
    calls = Counter()
    for name in ("build_chunk_index", "render_doc_prompt"):
        def counting(*args, _name=name, _original=getattr(orchestrator, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(orchestrator, name, counting)
    other = load_document(FIXTURE_DOC)
    tasks = make_tasks(doc) + [
        BenchTask(f"other-{i}", LOGIN_INSTRUCTION, other, ground_truth=LOGIN_TRUTH)
        for i in range(3)
    ]
    report, _ = run_benchmark(tasks)
    assert report.accuracy_pct == pytest.approx(100 * 10 / 13)
    assert calls == {"build_chunk_index": 2, "render_doc_prompt": 2}


@pytest.mark.parametrize("bad_id", ["", ".", "..", "a/b", "a\\b", "../up"])
def test_benchmark_rejects_unsafe_task_id_before_writing(doc, tmp_path, bad_id):
    tasks = make_tasks(doc)
    tasks[4] = BenchTask(bad_id, LOGIN_INSTRUCTION, doc, ground_truth=LOGIN_TRUTH)
    with pytest.raises(ValueError, match="plain file name"):
        run_benchmark(tasks, log_dir=tmp_path / "logs")
    assert not (tmp_path / "logs").exists()


def test_benchmark_rejects_duplicate_task_id_before_writing(doc, tmp_path):
    tasks = make_tasks(doc)
    tasks[4] = tasks[0]
    with pytest.raises(ValueError, match="duplicate task id 'ok-0'"):
        run_benchmark(tasks, log_dir=tmp_path / "logs")
    assert not (tmp_path / "logs").exists()
    report, _ = run_benchmark(tasks)  # without logs, ids name nothing
    assert report.n_tasks == 10


class _CountingFactory:
    """An LLM factory that counts the sessions it was asked for."""

    def __init__(self):
        self.calls = 0

    def __call__(self, task):
        self.calls += 1
        return ScriptedLlm(list(task.script or ("no api call",)))


@pytest.mark.parametrize("truth", ["this is not a request", (LOGIN_TRUTH, "f(a=")])
def test_benchmark_rejects_unparseable_truth_before_any_task(doc, tmp_path, truth):
    tasks = make_tasks(doc)
    tasks[6] = BenchTask("odd", LOGIN_INSTRUCTION, doc, ground_truth=truth)
    llm_factory = _CountingFactory()
    with pytest.raises(ValueError, match="task 'odd': ground truth does not parse"):
        run_benchmark(tasks, llm_factory=llm_factory, log_dir=tmp_path / "logs")
    with pytest.raises(ValueError, match="task 'odd'"):
        run_benchmark(tasks, llm_factory=llm_factory)
    assert llm_factory.calls == 0
    assert not (tmp_path / "logs").exists()


def test_truth_requests_parses_every_truth(doc):
    assert BenchTask("t", LOGIN_INSTRUCTION, doc).truth_requests() is None
    task = BenchTask("t", LOGIN_INSTRUCTION, doc, (LOGIN_TRUTH, "userLogin( username='kate', days=3 )"))
    assert task.truth_requests() == (req(LOGIN_TRUTH), req(LOGIN_TRUTH))


def test_benchmark_raises_when_a_document_fails_to_prepare(doc, tmp_path):
    class DownModel(SimilarityModel):
        def embed(self, text):
            raise TransportError("embedder unreachable")

    other = load_document(FIXTURE_DOC)
    tasks = make_tasks(doc) + [
        BenchTask("other", LOGIN_INSTRUCTION, other, ground_truth=LOGIN_TRUTH)
    ]
    llm_factory = _CountingFactory()
    with pytest.raises(TransportError, match="embedder unreachable"):
        run_benchmark(
            tasks,
            llm_factory=llm_factory,
            model_factory=lambda d: DownModel() if d is other else default_similarity(d),
            log_dir=tmp_path / "logs",
        )
    assert llm_factory.calls == 0
    assert not (tmp_path / "logs").exists()


# -- session log serialization ----------------------------------------------------

def test_session_log_lines_schema(prepared, executor):
    llm = ScriptedLlm(
        [wrap(ROUTE_REVERSED), f"Thought: swap.\n{wrap(ROUTE_CORRECT)}"]
    )
    judge = ExactMatchJudge(ground_truth=req(ROUTE_CORRECT))
    result = run_task(ROUTE_INSTRUCTION, prepared, llm, executor, judge,
                      task_id="route-1")
    lines = [json.loads(line) for line in session_log_lines(result.log)]
    assert {line["phase"] for line in lines} == {"static", "dynamic"}
    for line in lines:
        assert set(line) == {
            "task_id", "phase", "iteration", "action", "observation", "thought",
            "error_type", "feedback", "new_action", "ts",
        }
        assert line["task_id"] == "route-1"
    dynamic = [l for l in lines if l["phase"] == "dynamic"]
    assert dynamic[0]["observation"]["status"] == 200
    assert "info_code:20000" in dynamic[0]["observation"]["body"]
    assert dynamic[0]["new_action"] == ROUTE_CORRECT


def test_executed_sequence_reconstruction(prepared, executor):
    llm = ScriptedLlm(
        [wrap(ROUTE_REVERSED), f"Thought: swap.\n{wrap(ROUTE_CORRECT)}"]
    )
    judge = ExactMatchJudge(ground_truth=req(ROUTE_CORRECT))
    result = run_task(ROUTE_INSTRUCTION, prepared, llm, executor, judge)
    assert executed_sequence(result) == [ROUTE_REVERSED, ROUTE_CORRECT]
    assert [serialize_request(r) for r in executor.executed] == [
        ROUTE_REVERSED, ROUTE_CORRECT,
    ]


def test_write_session_log_file(prepared, executor, tmp_path):
    llm = ScriptedLlm([wrap(LOGIN_TRUTH)])
    judge = ExactMatchJudge(ground_truth=req(LOGIN_TRUTH))
    result = run_task(LOGIN_INSTRUCTION, prepared, llm, executor, judge)
    path = tmp_path / "task.jsonl"
    write_session_log(result.log, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["phase"] == "static"
