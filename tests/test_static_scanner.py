import json
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autofeedback import doc_model, static_scanner

from autofeedback import (
    ApiDocument,
    ApiRequest,
    ErrorType,
    ParseOutcome,
    classify_against_truth,
    default_similarity,
    detect,
    load_document,
    parse_request,
    prepare_document,
    render_feedback,
    retrieve_relevant_apis,
    serialize_request,
)
from autofeedback.errors import NoErrorFindingError, UnknownTruthApiError
from autofeedback.retrieval import RelevantSet, SimilarityModel
from autofeedback.static_scanner import (
    REGENERATE_SENTENCE,
    DetectionFinding,
)

from corruption import (
    Corruptor,
    base_request,
    build_arity_cases,
    build_corpus_cases,
    build_multifault_cases,
)
from oracles import (
    arity_ok,
    oracle_corpus_from_raw,
    oracle_match_name,
    oracle_match_param,
    oracle_tfidf_score,
)


def outcome_of(text: str) -> ParseOutcome:
    return parse_request(text)


def relevant(instruction: str, doc, model):
    return retrieve_relevant_apis(instruction, prepare_document(doc, model), 1)


def valid_request(text: str) -> ApiRequest:
    outcome = parse_request(text)
    assert outcome.ok
    return outcome.request


# -- detect: stage examples -------------------------------------------------

def test_unparseable_is_e1(doc, model):
    outcome = ParseOutcome(None)
    finding = detect(
        outcome, relevant("Log a user into the system.", doc, model),
        prepare_document(doc, model), 0.5,
    )
    assert finding.error_type is ErrorType.E1
    assert finding.offending_name is None and finding.suggested_name is None


def test_wrong_selection_is_e2_1(doc, model):
    instruction = "Log a user into the system and start a session."
    outcome = outcome_of('userLogout(username="kate")')
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E2_1
    assert finding.offending_name == "userLogout"
    assert finding.relevant_apis.names == ("userLogin",)


def test_naming_style_is_e2_2(doc, model):
    instruction = "Log a user into the system and start a session."
    outcome = outcome_of('user_login(username="kate", days=3)')
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E2_2
    assert finding.offending_name == "user_login"
    assert finding.suggested_name == "userLogin"


def test_semantic_name_is_e2_3_tfidf(doc, model, raw_doc):
    # medicines_list reorders the real name's tokens; the TF-IDF oracle in
    # the corruption generator guarantees its score beats the threshold.
    instruction = "List remaining medicines in the cabinet and their stock."
    outcome = outcome_of('medicines_list(name="aspirin")')
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E2_3
    assert finding.offending_name == "medicines_list"
    assert finding.suggested_name == "list_medicines"


class _ScriptedModel(SimilarityModel):
    """Fixed-score stand-in for an embedding retriever."""

    def __init__(self, instruction: str, target_description: str, fake_name: str,
                 target_name: str):
        self._instruction = instruction
        self._target_description = target_description
        self._fake_name = fake_name
        self._target_name = target_name

    def embed(self, text: str) -> np.ndarray:
        return np.zeros(3)

    def score(self, a: str, b: str) -> float:
        if {a, b} == {self._instruction, self._target_description}:
            return 0.9
        if {a, b} == {self._fake_name, self._target_name}:
            return 0.7
        return 0.1


def test_hallucinated_name_is_e2_3_with_embedding_model(doc):
    # A made-up API for an instruction whose real API shares no tokens with
    # it; an embedding-style model bridges the semantic gap.
    instruction = "I'm trying to find out how much aspirin is left."
    target = next(a for a in doc.apis if a.name == "list_medicines")
    model = _ScriptedModel(
        instruction, target.description, "find_aspirin_number", "list_medicines"
    )
    outcome = outcome_of("find_aspirin_number()")
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E2_3
    assert finding.offending_name == "find_aspirin_number"
    assert finding.suggested_name == "list_medicines"


def test_unknown_unrelated_name_is_e2_other(doc, model):
    instruction = "Log a user into the system and start a session."
    outcome = outcome_of("zzqqy(x=1)")
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E2_OTHER
    assert finding.offending_name == "zzqqy"
    assert finding.suggested_name is None


def test_foreign_parameter_is_e3_1(doc, model):
    instruction = "Log a user into the system and start a session."
    outcome = outcome_of('userLogin(recipient="kate", days=3)')
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E3_1
    assert finding.offending_name == "recipient"


def test_param_naming_style_is_e3_2(doc, model):
    # user_name normalizes to username, which another API documents.
    instruction = "Log a user into the system and start a session."
    outcome = outcome_of('userLogin(user_name="kate", days=3)')
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E3_2
    assert finding.offending_name == "user_name"
    assert finding.suggested_name == "username"


def test_param_case_variant_is_e3_3(doc, model):
    # Days matches no other API's parameters, but token-matches days.
    instruction = "Log a user into the system and start a session."
    outcome = outcome_of('userLogin(username="kate", Days=3)')
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E3_3
    assert finding.offending_name == "Days"
    assert finding.suggested_name == "days"


def test_param_token_reorder_is_e3_3(doc, model):
    instruction = "Convert an amount of money from one currency to another."
    outcome = outcome_of('currency_convert(amount=3.5, currency_from="EUR", to_currency="JPY")')
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E3_3
    assert finding.offending_name == "currency_from"
    assert finding.suggested_name == "from_currency"


def test_missing_required_is_e3_other(doc, model):
    instruction = "Log a user into the system and start a session."
    outcome = outcome_of('userLogin(username="kate")')
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E3_OTHER
    assert finding.offending_name == "days"


def test_type_mismatch_is_e4_1(doc, model):
    instruction = "Log a user into the system and start a session."
    outcome = outcome_of('userLogin(username="kate", days="three")')
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E4_1
    assert finding.offending_name == '"three"'
    assert finding.param_description == "Number of days the login session stays valid."


def test_int_widens_to_float(doc, model):
    instruction = "Convert an amount of money from one currency to another."
    outcome = outcome_of('currency_convert(amount=3, from_currency="EUR", to_currency="JPY")')
    assert detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5).error_type is ErrorType.NONE


def test_clean_request_is_none(doc, model):
    instruction = "Log a user into the system and start a session."
    outcome = outcome_of('userLogin(username="kate", days=3)')
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.NONE
    assert finding.offending_name is None


def test_name_fault_masks_later_faults(doc, model):
    # Wrong name AND wrong value: the name stage fires first.
    instruction = "Log a user into the system and start a session."
    outcome = outcome_of('user_login(username="kate", days="three")')
    finding = detect(outcome, relevant(instruction, doc, model), prepare_document(doc, model), 0.5)
    assert finding.error_type is ErrorType.E2_2


def test_corpus_sample_detects_exactly(doc, model):
    for case in build_corpus_cases(doc, per_class=3, seed=11):
        finding = detect(outcome_of(case.text), relevant(case.instruction, doc, model), prepare_document(doc, model), 0.5)
        assert finding.error_type is case.label, (case.text, finding.error_type)
        if case.expected_suggestion is not None:
            assert finding.suggested_name == case.expected_suggestion
        if case.expected_offending is not None:
            assert finding.offending_name == case.expected_offending
        if case.expected_description is not None:
            assert finding.param_description == case.expected_description
        assert arity_ok(finding)


# -- classify_against_truth --------------------------------------------------

TRUTH = 'userLogin(username="kate", days=3)'


def test_classify_identity_is_none(doc, model):
    truth = valid_request(TRUTH)
    assert classify_against_truth(outcome_of(TRUTH), truth, doc, model, 0.5) is ErrorType.NONE


def test_classify_case_variant_is_e2_2(doc, model):
    truth = valid_request(TRUTH)
    got = classify_against_truth(
        outcome_of('UserLogin(username="kate", days=3)'), truth, doc, model, 0.5
    )
    assert got is ErrorType.E2_2


def test_classify_other_api_is_e2_1(doc, model):
    truth = valid_request(TRUTH)
    got = classify_against_truth(
        outcome_of('userLogout(username="kate")'), truth, doc, model, 0.5
    )
    assert got is ErrorType.E2_1


def test_classify_wrong_value_is_e4_other(doc, model):
    truth = valid_request(TRUTH)
    got = classify_against_truth(
        outcome_of('userLogin(username="bob", days=3)'), truth, doc, model, 0.5
    )
    assert got is ErrorType.E4_OTHER


def test_classify_missing_optional_arg_is_e4_other(doc, model):
    truth = valid_request('get_weather(city="kyoto", units="metric")')
    got = classify_against_truth(
        outcome_of('get_weather(city="kyoto")'), truth, doc, model, 0.5
    )
    assert got is ErrorType.E4_OTHER


def test_classify_unparseable_is_e1(doc, model):
    truth = valid_request(TRUTH)
    got = classify_against_truth(outcome_of("not a request"), truth, doc, model, 0.5)
    assert got is ErrorType.E1


def test_classify_type_mismatch_is_e4_1(doc, model):
    truth = valid_request(TRUTH)
    got = classify_against_truth(
        outcome_of('userLogin(username="kate", days="three")'), truth, doc, model, 0.5
    )
    assert got is ErrorType.E4_1


def test_classify_unknown_truth_api_raises(doc, model):
    truth = ApiRequest("ghost", ())
    with pytest.raises(UnknownTruthApiError):
        classify_against_truth(outcome_of(TRUTH), truth, doc, model, 0.5)


def test_classify_identity_soundness_over_corpus(doc, model):
    corruptor = Corruptor(doc, seed=5)
    from corruption import base_request

    for api in doc.apis:
        req = base_request(api, corruptor.rng)
        outcome = ParseOutcome(req)
        assert classify_against_truth(outcome, req, doc, model, 0.5) is ErrorType.NONE


def test_detect_and_classify_share_the_cascade(doc, model):
    """With the truth's name generated and relevant, both scans walk the
    same unknown-key, missing-required and value-type stages."""
    cases = [
        (case.api_name, case.text)
        for case in build_corpus_cases(doc)
        + build_arity_cases(doc, n=1000)
        + build_multifault_cases(doc, n=500)
    ]
    # The corpus injects no missing required parameter; drop one per API.
    rng = random.Random(7)
    for api in doc.apis:
        req = base_request(api, rng)
        required = [p.name for p in api.params if p.required]
        if required:
            args = tuple(a for a in req.args if a[0] != required[0])
            cases.append((api.name, serialize_request(ApiRequest(api.name, args))))
    labels = Counter()
    prepared = prepare_document(doc, model)
    for api_name, text in cases:
        outcome = outcome_of(text)
        if not outcome.ok or outcome.request.name != api_name:
            continue
        truth = outcome.request
        finding = detect(outcome, RelevantSet(((truth.name, 1.0),)), prepared, 0.5)
        got = classify_against_truth(outcome, truth, doc, model, 0.5)
        assert got is finding.error_type, (text, got, finding.error_type)
        labels[got] += 1
    assert {t.family for t in labels} == {"E3", "E4", "none"}
    assert set(labels) >= {
        ErrorType.E3_1, ErrorType.E3_2, ErrorType.E3_3, ErrorType.E3_OTHER, ErrorType.E4_1,
    }


# -- render_feedback ----------------------------------------------------------

def _finding(doc, model, text, instruction):
    return detect(outcome_of(text), relevant(instruction, doc, model), prepare_document(doc, model), 0.5)


def test_e1_feedback_has_no_exclude_part(doc, model):
    finding = detect(
        ParseOutcome(None),
        relevant("Log a user into the system.", doc, model),
        prepare_document(doc, model), 0.5,
    )
    feedback = render_feedback(finding)
    assert "correct" not in feedback and "selection error" not in feedback
    assert feedback.endswith(REGENERATE_SENTENCE)


def test_e2_3_feedback_names_both_apis(doc, model):
    finding = _finding(
        doc, model, 'medicines_list(name="aspirin")',
        "List remaining medicines in the cabinet and their stock.",
    )
    assert finding.error_type is ErrorType.E2_3
    feedback = render_feedback(finding)
    assert "medicines_list" in feedback
    assert "list_medicines" in feedback
    assert "not a selection error or a formatting error" in feedback
    # The Exclude sentence sits between Locate and Suggest.
    assert (
        "you used 'medicines_list'. The API name is not a selection error or a"
        " formatting error. 'medicines_list' does not exist" in feedback
    )


def test_e2_2_feedback_names_both_and_regenerates(doc, model):
    finding = _finding(
        doc, model, 'user_login(username="kate", days=3)',
        "Log a user into the system and start a session.",
    )
    feedback = render_feedback(finding)
    assert "user_login" in feedback and "userLogin" in feedback
    assert feedback.endswith(REGENERATE_SENTENCE)


def test_e4_1_feedback_quotes_value_and_description(doc, model):
    finding = _finding(
        doc, model, 'userLogin(username="kate", days="three")',
        "Log a user into the system and start a session.",
    )
    feedback = render_feedback(finding)
    assert '"three"' in feedback
    assert "Number of days the login session stays valid." in feedback


def test_feedback_always_quotes_offending_content(doc, model):
    for case in build_corpus_cases(doc, per_class=2, seed=23):
        finding = detect(outcome_of(case.text), relevant(case.instruction, doc, model), prepare_document(doc, model), 0.5)
        feedback = render_feedback(finding)
        if finding.offending_name is not None:
            assert finding.offending_name in feedback
        assert feedback.startswith("The API request you generated")
        assert feedback.endswith(REGENERATE_SENTENCE)


def test_render_none_raises(doc):
    with pytest.raises(NoErrorFindingError):
        render_feedback(DetectionFinding(ErrorType.NONE))


RELEVANT = RelevantSet((("list_medicines", 0.8),))
DAYS = "Number of days the login session stays valid."


@pytest.mark.parametrize(
    "finding, expected",
    [
        pytest.param(
            DetectionFinding(ErrorType.E1),
            "The API request you generated contains an error. No parseable API "
            "request was found in your output. Your output did not contain a "
            "parseable API request in the format APINAME(key1=value1, key2=value2, "
            "...). Please regenerate the API request between <<API>> and <</API>>.",
            id="E1",
        ),
        pytest.param(
            DetectionFinding(ErrorType.E2_1, "get_weather", relevant_apis=RELEVANT),
            "The API request you generated contains an error. The error is in the "
            "API name: you used 'get_weather'. The request format itself is correct. "
            "'get_weather' exists in the documentation but does not match the user "
            "instruction; you selected the wrong API. The API most relevant to the "
            "instruction is 'list_medicines'. Please regenerate the API request "
            "between <<API>> and <</API>>.",
            id="E2.1",
        ),
        pytest.param(
            DetectionFinding(ErrorType.E2_2, "user_login", "userLogin"),
            "The API request you generated contains an error. The error is in the "
            "API name: you used 'user_login'. The API name is not a selection error. "
            "'user_login' uses the wrong naming format; the documented API is named "
            "'userLogin'. Please regenerate the API request between <<API>> and "
            "<</API>>.",
            id="E2.2",
        ),
        pytest.param(
            DetectionFinding(ErrorType.E2_3, "medicines_list", "list_medicines"),
            "The API request you generated contains an error. The error is in the "
            "API name: you used 'medicines_list'. The API name is not a selection "
            "error or a formatting error. 'medicines_list' does not exist; the "
            "semantically closest documented API is 'list_medicines'. Please "
            "regenerate the API request between <<API>> and <</API>>.",
            id="E2.3",
        ),
        pytest.param(
            DetectionFinding(ErrorType.E2_OTHER, "fly_me", relevant_apis=RELEVANT),
            "The API request you generated contains an error. The error is in the "
            "API name: you used 'fly_me'. The API name is not a selection error, a "
            "formatting error, or a semantically similar name. 'fly_me' does not "
            "appear in the API documentation. The API most relevant to the "
            "instruction is 'list_medicines'. Please regenerate the API request "
            "between <<API>> and <</API>>.",
            id="E2.other",
        ),
        pytest.param(
            DetectionFinding(ErrorType.E3_1, "city"),
            "The API request you generated contains an error. The error is in the "
            "parameter name 'city'. The API name is correct. 'city' is a parameter "
            "of a different API, not of the API you called. Please regenerate the "
            "API request between <<API>> and <</API>>.",
            id="E3.1",
        ),
        pytest.param(
            DetectionFinding(ErrorType.E3_2, "user_name", "username"),
            "The API request you generated contains an error. The error is in the "
            "parameter name 'user_name'. The parameter name is not a selection "
            "error. 'user_name' uses the wrong naming format; the documented "
            "parameter is named 'username'. Please regenerate the API request "
            "between <<API>> and <</API>>.",
            id="E3.2",
        ),
        pytest.param(
            DetectionFinding(ErrorType.E3_3, "login_days", "days"),
            "The API request you generated contains an error. The error is in the "
            "parameter name 'login_days'. The parameter name is not a selection "
            "error or a formatting error. 'login_days' is not documented; the "
            "semantically closest documented parameter is 'days'. Please regenerate "
            "the API request between <<API>> and <</API>>.",
            id="E3.3",
        ),
        pytest.param(
            DetectionFinding(ErrorType.E3_OTHER, "token"),
            "The API request you generated contains an error. The error is in the "
            "parameter name 'token'. The parameter name is not a selection error, a "
            "formatting error, or a semantically similar name. No documented "
            "parameter of the called API matches 'token'. If the documentation lists "
            "'token' as required, include it; otherwise remove or replace it. Please "
            "regenerate the API request between <<API>> and <</API>>.",
            id="E3.other",
        ),
        pytest.param(
            DetectionFinding(ErrorType.E4_1, '"three"', param_description=DAYS),
            "The API request you generated contains an error. The error is in the "
            'parameter value "three". The API name and all parameter names are '
            'correct. The value "three" does not match the documented parameter '
            "type. Parameter description: Number of days the login session stays "
            "valid. Please regenerate the API request between <<API>> and <</API>>.",
            id="E4.1",
        ),
        pytest.param(
            DetectionFinding(ErrorType.E4_OTHER, "9", param_description=DAYS),
            "The API request you generated contains an error. The error is in the "
            "parameter value 9. The API name, the parameter names, and the value "
            "types are correct. The value 9 does not match the documented parameter "
            "type. Parameter description: Number of days the login session stays "
            "valid. Please regenerate the API request between <<API>> and <</API>>.",
            id="E4.other",
        ),
    ],
)
def test_feedback_text_per_error_type(finding, expected):
    assert render_feedback(finding) == expected


# -- index lookups answer as the linear scans did ----------------------------

# Pools built to collide: API names that normalize alike or share tokens,
# one parameter name spread over several APIs in several naming styles.
_API_NAMES = [
    "get_user", "getUser", "GET-USER", "user_get", "get_users", "list_orders",
    "listOrders", "order_list", "send_mail", "mail_send", "delete_user",
]
_PARAM_NAMES = [
    "user_id", "userId", "USER-ID", "id_user", "user", "order_id", "orderId",
    "limit", "max_limit", "query", "user_name",
]
_PROBE_NAMES = _API_NAMES + [
    "get", "user", "order", "list", "users_get", "Get_User", "get_user_by_id",
    "orders_list", "zzq",
]
_PROBE_KEYS = _PARAM_NAMES + [
    "userid", "User_Id", "id", "name_user", "limit_max", "orders", "zzq",
]
_WORDS = ["fetch", "user", "record", "order", "mail", "list", "delete", "the", "by"]


@st.composite
def _colliding_doc(draw):
    names = draw(st.lists(st.sampled_from(_API_NAMES), min_size=1, max_size=7, unique=True))
    words = st.lists(st.sampled_from(_WORDS), max_size=5).map(" ".join)
    apis = []
    for name in names:
        params = draw(st.lists(st.sampled_from(_PARAM_NAMES), max_size=4, unique=True))
        apis.append({
            "name": name,
            "description": draw(words),
            "parameters": [
                {"name": p, "type": "string", "description": draw(words)} for p in params
            ],
        })
    return {"apis": apis}


@settings(max_examples=300, deadline=None)
@given(
    _colliding_doc(),
    st.data(),
    st.sampled_from([0.2, 0.5, 0.8]),
)
def test_index_lookups_equal_linear_scans(raw, data, threshold):
    doc = load_document(json.dumps(raw))
    model = default_similarity(doc)
    corpus = oracle_corpus_from_raw(raw)

    def score(a, b):
        return oracle_tfidf_score(a, b, corpus)

    truth_api = data.draw(st.sampled_from(doc.apis))
    truth = ApiRequest(truth_api.name)
    if data.draw(st.booleans()):
        probe = data.draw(st.sampled_from(_PROBE_NAMES).filter(lambda n: n != truth.name))
        request = ApiRequest(probe)
        in_detect = oracle_match_name(probe, raw, list(doc.api_names), score, threshold)
        in_classify = oracle_match_name(probe, raw, [truth.name], score, threshold)
    else:
        probe = data.draw(
            st.sampled_from(_PROBE_KEYS).filter(lambda k: k not in truth_api.param_names)
        )
        request = ApiRequest(truth.name, ((probe, "x"),))
        in_detect = in_classify = oracle_match_param(probe, truth.name, raw, score, threshold)

    outcome = ParseOutcome(request)
    finding = detect(
        outcome, RelevantSet(((truth.name, 1.0),)), prepare_document(doc, model), threshold
    )
    assert (finding.error_type.value, finding.offending_name, finding.suggested_name) == (
        in_detect[0], probe, in_detect[1],
    )
    label = classify_against_truth(outcome, truth, doc, model, threshold)
    assert label.value == in_classify[0]


def _renamed_copies(doc: ApiDocument, times: int) -> ApiDocument:
    """*doc* followed by times - 1 copies of its APIs under new names;
    letter suffixes keep every normalized name distinct."""
    apis = list(doc.apis)
    for i in range(1, times):
        suffix = "Copy" + "abcdefghijklmnopqrstuvwxyz"[i]
        apis.extend(replace(api, name=api.name + suffix) for api in doc.apis)
    return ApiDocument(tuple(apis))


def test_scan_cost_does_not_grow_with_the_doc(doc, monkeypatch):
    normalized = Counter()

    def counting_normalize(name):
        normalized[name] += 1
        return doc_model._NON_LETTER.sub("", name).lower()

    monkeypatch.setattr(doc_model, "normalize_name", counting_normalize)
    monkeypatch.setattr(static_scanner, "normalize_name", counting_normalize)
    truth = valid_request('userLogin(username="kate", days=3)')
    wrong_name = outcome_of('medicines_list(name="aspirin")')
    foreign_key = outcome_of('userLogin(recipient="kate", days=3)')
    styled_key = outcome_of('userLogin(user_name="kate", days=3)')
    per_doc = []
    for scanned in (doc, _renamed_copies(doc, 10)):
        model = default_similarity(scanned)
        prepared = prepare_document(scanned, model)
        scores = []
        score = model.score
        model.score = lambda a, b: scores.append((a, b)) or score(a, b)

        finding = detect(wrong_name, RelevantSet(((truth.name, 1.0),)), prepared, 0.5)
        assert finding.error_type is ErrorType.E2_3
        assert finding.suggested_name == "list_medicines"
        assert scores == []
        medicines = valid_request('list_medicines(name="aspirin")')
        assert classify_against_truth(wrong_name, medicines, scanned, model, 0.5) is ErrorType.E2_3
        assert len(scores) == 1

        counts = []
        for outcome, label in ((foreign_key, ErrorType.E3_1), (styled_key, ErrorType.E3_2)):
            classify_against_truth(outcome, truth, scanned, model, 0.5)  # builds the indices
            normalized.clear()
            assert classify_against_truth(outcome, truth, scanned, model, 0.5) is label
            counts.append(sum(normalized.values()))
        per_doc.append(counts)
    assert per_doc[0] == per_doc[1]
    assert per_doc[0][1] <= 1
