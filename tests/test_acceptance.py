"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
line per criterion.
"""

import json
import random
import time

import numpy as np
import pytest

from autofeedback import (
    ApiResponse,
    ErrorType,
    ExactMatchJudge,
    PipelineConfig,
    ScriptedLlm,
    build_chunk_index,
    detect,
    parse_request,
    retrieve_error_message,
    retrieve_relevant_apis,
    run_dynamic_loop,
    run_task,
    serialize_request,
    spearman,
)
from autofeedback.gateways import MockApiServer
from autofeedback.metrics import overhead, population_variance
from autofeedback.retrieval import api_documentation_text, split_sentences
from autofeedback.static_scanner import REGENERATE_SENTENCE

from corruption import (
    build_arity_cases,
    build_corpus_cases,
    build_multifault_cases,
)
from oracles import arity_ok, oracle_corpus_from_raw, oracle_spearman, oracle_tfidf_score
from test_cli import dataset_lines, write_dataset
from test_cli import run_cli
from test_gateways import route_planning_handler
from test_request_codec import random_request

STRUCTURAL = {
    ErrorType.E1, ErrorType.E2_1, ErrorType.E2_2,
    ErrorType.E3_1, ErrorType.E3_2, ErrorType.E4_1,
}
SEMANTIC = {ErrorType.E2_3, ErrorType.E3_3}


def _passed(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_01_error_classification_corpus(doc, model, prepared, raw_doc):
    cases = build_corpus_cases(doc, per_class=30)
    assert len(cases) == 240
    corpus = oracle_corpus_from_raw(raw_doc)

    started = time.perf_counter()
    for case in cases:
        if case.label in SEMANTIC:
            # pre-verification: the corrupted name beats the threshold per
            # the independent oracle before detect is trusted with it
            source = case.expected_suggestion
            assert oracle_tfidf_score(case.expected_offending, source, corpus) > 0.5
        finding = detect(
            parse_request(case.text),
            retrieve_relevant_apis(case.instruction, prepared, 1),
            prepared, threshold=0.5,
        )
        assert finding.error_type is case.label, (
            case.text, case.label, finding.error_type,
        )
        if case.expected_suggestion is not None:
            assert finding.suggested_name == case.expected_suggestion
    elapsed = time.perf_counter() - started

    assert elapsed < 5.0, f"classification took {elapsed:.2f}s"
    _passed(f"1 classification-240 ({elapsed:.2f}s)")


def test_criterion_02_finding_arity_property(doc, model, prepared):
    cases = build_arity_cases(doc, n=1000)
    assert len(cases) == 1000
    for case in cases:
        finding = detect(
            parse_request(case.text),
            retrieve_relevant_apis(case.instruction, prepared, 1),
            prepared, threshold=0.5,
        )
        assert arity_ok(finding), (case.text, finding)
        if case.label is ErrorType.NONE:
            assert finding.error_type is ErrorType.NONE, case.text
    _passed("2 arity-1000")


def test_criterion_03_ordering_property(doc, model, prepared):
    cases = build_multifault_cases(doc, n=500)
    assert len(cases) == 500
    for case in cases:
        finding = detect(
            parse_request(case.text),
            retrieve_relevant_apis(case.instruction, prepared, 1),
            prepared, threshold=0.5,
        )
        assert finding.error_type is case.label, (
            case.text, case.label, finding.error_type,
        )
    _passed("3 ordering-500")


def test_criterion_04_overhead_reproduces_reported_rows():
    assert overhead(919.45, 70.69) == pytest.approx(13.01, abs=0.01)
    assert overhead(1338.03, 75.00) == pytest.approx(17.84, abs=0.01)
    _passed("4 overhead")


def test_criterion_05_population_variance():
    assert population_variance([1, 0, 0]) == pytest.approx(0.2222, abs=1e-4)
    assert population_variance([1, 1, 0]) == pytest.approx(0.2222, abs=1e-4)
    _passed("5 variance")


def test_criterion_06_spearman():
    assert spearman([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == 1.0
    assert spearman([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]) == -1.0
    xs, ys = [1, 2, 3, 4, 5], [1, 2, 3, 5, 4]
    assert spearman(xs, ys) == pytest.approx(0.9, abs=1e-9)
    assert spearman(xs, ys) == pytest.approx(oracle_spearman(xs, ys), abs=1e-9)
    _passed("6 spearman")


def test_criterion_07_static_convergence(prepared):
    truth = 'userLogin(username="kate", days=3)'
    llm = ScriptedLlm(
        [
            f'<<API>>user_login(username="kate", days=3)<</API>>',
            f"<<API>>{truth}<</API>>",
        ]
    )
    executor = MockApiServer(
        {"userLogin": lambda args: ApiResponse(200, '{"session": "ok"}')}
    )
    judge = ExactMatchJudge(ground_truth=parse_request(truth).request)
    result = run_task(
        "Log me into the system and start my session.",
        prepared, llm, executor, judge,
    )
    assert result.satisfied
    assert result.total_llm_calls == 2
    assert len(executor.executed) == 1
    errors = [e.finding.error_type for e in result.log.static_events]
    assert errors == [ErrorType.E2_2, ErrorType.NONE]
    feedback = result.log.static_events[0].feedback_text
    assert "user_login" in feedback and "userLogin" in feedback
    assert REGENERATE_SENTENCE in feedback
    _passed("7 static-convergence")


def test_criterion_08_dynamic_convergence(prepared):
    reversed_req = parse_request(
        'route_planning(origin="116.4,39.9", dest="121.5,31.2")'
    ).request
    correct = 'route_planning(origin="39.9,116.4", dest="31.2,121.5")'
    executor = MockApiServer({"route_planning": route_planning_handler})
    llm = ScriptedLlm([f"Thought: swap the coordinate order.\n<<API>>{correct}<</API>>"])
    judge = ExactMatchJudge(ground_truth=parse_request(correct).request)
    records = []
    outcome = run_dynamic_loop(
        reversed_req, prepared, executor, llm, judge, n_max=2,
        static_check=lambda request: True, records=records,
    )
    assert outcome.satisfied
    assert len(records) == 1
    record = records[0]
    assert "info_code:20000" in record.response.body
    assert record.error_message is not None
    assert "Longitude precedes latitude" in record.error_message.text
    _passed("8 dynamic-convergence")


def test_criterion_09_budget_law(prepared):
    executor = MockApiServer(
        {"userLogin": lambda args: ApiResponse(200, "ok")}
    )
    judge = ExactMatchJudge(
        ground_truth=parse_request('userLogin(username="kate", days=3)').request
    )
    instruction = "Log me into the system and start my session."

    adversarial = ScriptedLlm(["never a parseable request"])
    result = run_task(
        instruction, prepared, adversarial, executor, judge,
        PipelineConfig(max_static=3, max_dynamic=2),
    )
    assert not result.satisfied
    assert result.total_llm_calls <= 1 + 3 + 2 * 2

    wrong_value = ScriptedLlm(['<<API>>userLogin(username="bob", days=9)<</API>>'])
    executor2 = MockApiServer({"userLogin": lambda args: ApiResponse(200, "ok")})
    result2 = run_task(
        instruction, prepared, wrong_value, executor2, judge,
        PipelineConfig(max_static=3, max_dynamic=2),
    )
    assert not result2.satisfied
    assert result2.total_llm_calls <= 1 + 3 + 2 * 2
    assert len(executor2.executed) <= 1 + 2

    single = ScriptedLlm(['<<API>>userLogin(username="kate", days=3)<</API>>'])
    executor3 = MockApiServer({"userLogin": lambda args: ApiResponse(200, "ok")})
    result3 = run_task(
        instruction, prepared, single, executor3, judge,
        PipelineConfig(max_static=0, max_dynamic=0),
    )
    assert result3.total_llm_calls == 1
    assert len(executor3.executed) <= 1
    _passed("9 budget-law")


def test_criterion_10_roundtrip_1000():
    rng = random.Random(777)
    for _ in range(1000):
        req = random_request(rng)
        outcome = parse_request(serialize_request(req))
        assert outcome.ok and outcome.request == req
    _passed("10 roundtrip-1000")


def test_criterion_11_bench_determinism(tmp_path):
    dataset = tmp_path / "tasks.jsonl"
    write_dataset(dataset, dataset_lines())
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("bench", "--dataset", str(dataset), "--log-dir", str(dir_a)) == 0
    assert run_cli("bench", "--dataset", str(dataset), "--log-dir", str(dir_b)) == 0

    def normalized(directory):
        out = {}
        for path in sorted(directory.iterdir()):
            if path.suffix == ".jsonl":
                lines = []
                for line in path.read_text().splitlines():
                    event = json.loads(line)
                    event.pop("ts", None)
                    lines.append(json.dumps(event, sort_keys=True))
                out[path.name] = "\n".join(lines)
            else:
                out[path.name] = path.read_text()
        return out

    assert normalized(dir_a) == normalized(dir_b)
    _passed("11 determinism")


def test_criterion_12_chunk_coverage_and_retrieval_equivalence(doc, model):
    index = build_chunk_index(doc, model, 0.3)
    for api in doc.apis:
        expected = sorted(split_sentences(api_documentation_text(api)))
        got = sorted(s for c in index.for_api(api.name) for s in c.sentences)
        assert got == expected

    rng = random.Random(4242)
    vocab = sorted(
        {
            token
            for api in doc.apis
            for token in api_documentation_text(api).lower().split()
        }
    ) + ["zzz", "unseen", "20000", "info_code"]
    api_names = [a.name for a in doc.apis]
    for _ in range(100):
        api_name = rng.choice(api_names)
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
        got = retrieve_error_message(api_name, query, index, model)
        chunks = index.for_api(api_name)
        query_vec = model.embed(query)
        sims = [float(np.dot(query_vec, c.vector)) for c in chunks]
        best = chunks[sims.index(max(sims))]
        assert got is not None and got.text == best.text
    _passed("12 chunk-coverage-retrieval")
