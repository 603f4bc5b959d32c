import pytest

from autofeedback import (
    ApiRequest,
    ApiResponse,
    ExactMatchJudge,
    ScriptedLlm,
    assemble_react_prompt,
    parse_request,
    run_dynamic_loop,
    serialize_request,
)
from autofeedback.dynamic_analyzer import FeedbackRecord
from autofeedback.gateways import MockApiServer
from autofeedback.retrieval import RetrievedMessage

from test_gateways import route_planning_handler

REVERSED = 'route_planning(origin="116.4,39.9", dest="121.5,31.2")'
CORRECT = 'route_planning(origin="39.9,116.4", dest="31.2,121.5")'


def accept_all(request: ApiRequest) -> bool:
    return True


def req(text: str) -> ApiRequest:
    outcome = parse_request(text)
    assert outcome.ok
    return outcome.request


@pytest.fixture
def executor():
    return MockApiServer({"route_planning": route_planning_handler})


@pytest.fixture
def judge():
    return ExactMatchJudge(ground_truth=req(CORRECT))


def test_accepted_first_try_enters_no_loop(doc, prepared, executor, judge):
    llm = ScriptedLlm(["should never be called"])
    records = []
    outcome = run_dynamic_loop(
        req(CORRECT), prepared, executor, llm, judge, n_max=2,
        static_check=accept_all, records=records,
    )
    assert outcome.satisfied
    assert records == []
    assert llm.calls == 0
    assert len(executor.executed) == 1


def test_route_planning_correction_converges(doc, prepared, executor, judge):
    llm = ScriptedLlm(
        [
            "Thought: The coordinates were given longitude-first; swapping the"
            f" order.\n<<API>>{CORRECT}<</API>>"
        ]
    )
    records = []
    outcome = run_dynamic_loop(
        req(REVERSED), prepared, executor, llm, judge, n_max=2,
        static_check=accept_all, records=records,
    )
    assert outcome.satisfied
    assert len(records) == 1
    record = records[0]
    assert record.error_message is not None
    assert "Longitude precedes latitude" in record.error_message.text
    assert "info_code:20000" in record.response.body
    assert serialize_request(record.new_action) == CORRECT
    # the executor's answer to the last request sent is the success body
    final = executor.executed[-1]
    assert serialize_request(final) == CORRECT
    assert route_planning_handler(dict(final.args)).body == '{"route": "ok"}'
    # the correction prompt carried the observation and the retrieved text
    prompt = llm.received_prompts[0][-1].content
    assert "info_code:20000" in prompt
    assert "Longitude precedes latitude" in prompt


def test_reply_without_thought_line_keeps_text_before_block(
    doc, prepared, executor, judge
):
    llm = ScriptedLlm([f"Swap the coordinate order.\n<<API>>{CORRECT}<</API>>\nDone."])
    records = []
    outcome = run_dynamic_loop(
        req(REVERSED), prepared, executor, llm, judge, n_max=2,
        static_check=accept_all, records=records,
    )
    assert outcome.satisfied
    assert [r.thought for r in records] == ["Swap the coordinate order."]


def test_budget_exhaustion_is_unsatisfied(doc, prepared, executor, judge):
    llm = ScriptedLlm([f"Thought: retrying as-is.\n<<API>>{REVERSED}<</API>>"])
    records = []
    outcome = run_dynamic_loop(
        req(REVERSED), prepared, executor, llm, judge, n_max=2,
        static_check=accept_all, records=records,
    )
    assert not outcome.satisfied
    assert len(records) == 2
    assert len(executor.executed) == 3  # n_max + 1


def test_records_chain_action_to_new_action(doc, prepared, executor, judge):
    llm = ScriptedLlm(
        [
            f"Thought: first try.\n<<API>>route_planning(origin=\"100.0,1.0\", dest=\"31.2,121.5\")<</API>>",
            f"Thought: second try.\n<<API>>{CORRECT}<</API>>",
        ]
    )
    records = []
    outcome = run_dynamic_loop(
        req(REVERSED), prepared, executor, llm, judge, n_max=3,
        static_check=accept_all, records=records,
    )
    assert outcome.satisfied
    assert len(records) == 2
    for earlier, later in zip(records, records[1:]):
        assert earlier.new_action == later.action
    assert [r.iteration for r in records] == [0, 1]


def test_n_max_zero_means_one_execution_no_llm(doc, prepared, executor, judge):
    llm = ScriptedLlm(["unused"])
    records = []
    outcome = run_dynamic_loop(
        req(REVERSED), prepared, executor, llm, judge, n_max=0,
        static_check=accept_all, records=records,
    )
    assert not outcome.satisfied
    assert records == []
    assert llm.calls == 0
    assert len(executor.executed) == 1


def test_unparseable_correction_reasked_once(doc, prepared, executor, judge):
    llm = ScriptedLlm(
        [
            "I think the coordinates are wrong but here is no request.",
            f"Thought: sorry.\n<<API>>{CORRECT}<</API>>",
        ]
    )
    records = []
    outcome = run_dynamic_loop(
        req(REVERSED), prepared, executor, llm, judge, n_max=2,
        static_check=accept_all, records=records,
    )
    assert outcome.satisfied
    assert len(records) == 1
    assert llm.calls == 2  # first attempt plus one re-ask
    reask = llm.received_prompts[1][-1].content
    assert "did not contain a parseable API request" in reask


def test_twice_unparseable_burns_iteration_keeps_request(
    doc, prepared, executor, judge
):
    llm = ScriptedLlm(["no request here", "still no request"])
    records = []
    outcome = run_dynamic_loop(
        req(REVERSED), prepared, executor, llm, judge, n_max=1,
        static_check=accept_all, records=records,
    )
    assert not outcome.satisfied
    assert len(records) == 1
    assert records[0].new_action == records[0].action
    assert llm.calls == 2
    assert len(executor.executed) == 2


def test_llm_calls_bounded_by_twice_budget(doc, prepared, executor, judge):
    llm = ScriptedLlm(["never a request"])
    n_max = 3
    records = []
    outcome = run_dynamic_loop(
        req(REVERSED), prepared, executor, llm, judge, n_max=n_max,
        static_check=accept_all, records=records,
    )
    assert not outcome.satisfied
    assert llm.calls <= 2 * n_max
    assert len(executor.executed) <= n_max + 1


def test_static_check_rejection_burns_iteration(doc, prepared, executor, judge):
    llm = ScriptedLlm([f"Thought: using a fake api.\n<<API>>fake_api(x=1)<</API>>"])
    records = []
    outcome = run_dynamic_loop(
        req(REVERSED),
        prepared,
        executor,
        llm,
        judge,
        n_max=1,
        static_check=lambda r: r.name in doc.api_names,
        records=records,
    )
    assert not outcome.satisfied
    assert records[0].new_action == records[0].action


# -- judges ---------------------------------------------------------------------

def test_exact_match_judge_requires_status_and_truth():
    judge = ExactMatchJudge(ground_truth=req(CORRECT))
    assert judge.accepts(req(CORRECT), ApiResponse(200, "ok"))
    assert not judge.accepts(req(CORRECT), ApiResponse(500, "boom"))
    assert not judge.accepts(req(REVERSED), ApiResponse(200, "ok"))


def test_exact_match_judge_status_only():
    judge = ExactMatchJudge()
    assert judge.accepts(req(CORRECT), ApiResponse(200, "anything"))
    assert not judge.accepts(req(CORRECT), ApiResponse(404, "nope"))


# -- prompt assembly ---------------------------------------------------------------

def test_prompt_single_turn():
    response = ApiResponse(200, "info_code:20000")
    prompt = assemble_react_prompt([], req(REVERSED), (response, None))
    assert prompt.count("Action:") == 1
    assert prompt.count("Observation:") == 1
    assert "error_message=none" in prompt
    assert "Thought:" in prompt  # instructions ask for one


def test_prompt_renders_history_then_current():
    message = RetrievedMessage("Longitude precedes latitude.", "route_planning", 0.9)
    record = FeedbackRecord(
        0, req(REVERSED), ApiResponse(200, "info_code:20000"), message,
        "swap the order", req(CORRECT),
    )
    prompt = assemble_react_prompt(
        [record, record], req(CORRECT), (ApiResponse(200, "ok"), None)
    )
    assert prompt.count("Action:") == 3
    assert prompt.count("Observation:") == 3
    assert prompt.count("Thought: swap the order") == 2
    assert prompt.index("status=200 body=info_code:20000") < prompt.index("body=ok")


def test_prompt_includes_retrieved_message_text():
    message = RetrievedMessage("Longitude precedes latitude.", "route_planning", 0.9)
    prompt = assemble_react_prompt(
        [], req(REVERSED), (ApiResponse(200, "info_code:20000"), message)
    )
    assert "error_message=Longitude precedes latitude." in prompt
