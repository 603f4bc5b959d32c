import json
import socket

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from autofeedback import (
    ApiRequest,
    ApiResponse,
    ChatMessage,
    ExactMatchJudge,
    ScriptedLlm,
    run_task,
)
from autofeedback.errors import ProtocolError, TransportError
from autofeedback.gateways import (
    RETRY_ATTEMPTS,
    HttpApiExecutor,
    HttpLlmClient,
    MockApiServer,
    whitespace_tokens,
)

from conftest import DROP


# -- scripted LLM -------------------------------------------------------------

def test_scripted_replay_and_repeat_last():
    llm = ScriptedLlm(["a", "b"])
    replies = [llm.complete([ChatMessage("user", "hi")]).text for _ in range(3)]
    assert replies == ["a", "b", "b"]


def test_scripted_hands_over_to_then_after_its_script():
    then = ScriptedLlm(["live"])
    llm = ScriptedLlm(["a", "b"], then)
    replies = [llm.complete([ChatMessage("user", str(i))]).text for i in range(4)]
    assert replies == ["a", "b", "live", "live"]
    assert llm.calls == 4
    assert [p[0].content for p in then.received_prompts] == ["2", "3"]


def test_scripted_records_prompts():
    llm = ScriptedLlm(["ok"])
    llm.complete([ChatMessage("system", "s"), ChatMessage("user", "u")])
    llm.complete([ChatMessage("user", "again")])
    assert len(llm.received_prompts) == 2
    assert llm.received_prompts[0][0].content == "s"


def test_scripted_two_sessions_identical():
    script = ["one", "two"]
    first = ScriptedLlm(script)
    second = ScriptedLlm(script)
    msgs = [ChatMessage("user", "x")]
    assert [first.complete(msgs).text for _ in range(4)] == [
        second.complete(msgs).text for _ in range(4)
    ]


def test_scripted_token_counts_are_whitespace_counts():
    llm = ScriptedLlm(["three word reply"])
    reply = llm.complete([ChatMessage("user", "one two"), ChatMessage("user", "three")])
    assert reply.prompt_tokens == 3
    assert reply.completion_tokens == 3


@given(st.text(alphabet=" \t\nab\u00a0\u2003.", max_size=40))
def test_message_token_count_is_whitespace_tokens(content):
    message = ChatMessage("user", content)
    assert message.tokens == whitespace_tokens(content)
    assert message.tokens == whitespace_tokens(content)  # kept value


def test_scripted_rejects_empty_script():
    with pytest.raises(ValueError):
        ScriptedLlm([])


# -- HTTP LLM client (stub_server fixture comes from conftest) -------------------

def _completion_body(text, usage=True):
    body = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if usage:
        body["usage"] = {"prompt_tokens": 11, "completion_tokens": 7}
    return json.dumps(body)


def test_http_llm_round_trip(stub_server):
    base_url, handler = stub_server
    handler.behaviors.append((200, _completion_body("hello there")))
    client = HttpLlmClient(base_url, "test-model", "secret")
    reply = client.complete([ChatMessage("user", "hi")])
    assert reply.text == "hello there"
    assert (reply.prompt_tokens, reply.completion_tokens) == (11, 7)
    method, path, body = handler.requests_seen[0]
    assert (method, path) == ("POST", "/chat/completions")
    sent = json.loads(body)
    assert sent["model"] == "test-model"
    assert sent["messages"] == [{"role": "user", "content": "hi"}]


def test_http_llm_usage_fallback_to_whitespace(stub_server):
    base_url, handler = stub_server
    handler.behaviors.append((200, _completion_body("two words", usage=False)))
    client = HttpLlmClient(base_url, "m")
    reply = client.complete([ChatMessage("user", "one two three")])
    assert reply.prompt_tokens == 3
    assert reply.completion_tokens == 2


def test_http_llm_retries_then_transport_error(stub_server):
    base_url, handler = stub_server
    handler.behaviors.extend([(500, "{}"), (500, "{}"), (500, "{}")])
    client = HttpLlmClient(base_url, "m")
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "hi")])
    assert len(handler.requests_seen) == 3


def test_http_llm_recovers_after_transient_failure(stub_server):
    base_url, handler = stub_server
    handler.behaviors.extend([(500, "{}"), (200, _completion_body("ok"))])
    client = HttpLlmClient(base_url, "m")
    assert client.complete([ChatMessage("user", "hi")]).text == "ok"


def test_http_llm_retries_a_rate_limit(stub_server):
    base_url, handler = stub_server
    handler.behaviors.extend([(429, '{"error": "slow down"}'), (200, _completion_body("ok"))])
    client = HttpLlmClient(base_url, "m")
    assert client.complete([ChatMessage("user", "hi")]).text == "ok"
    assert len(handler.requests_seen) == 2


def test_http_llm_rate_limited_on_every_attempt_is_transport_error(stub_server):
    base_url, handler = stub_server
    handler.default_behavior = (429, "{}")
    with pytest.raises(TransportError, match=f"after {RETRY_ATTEMPTS} attempts"):
        HttpLlmClient(base_url, "m").complete([ChatMessage("user", "hi")])
    assert len(handler.requests_seen) == RETRY_ATTEMPTS


def test_http_llm_client_error_status_is_protocol_error(stub_server):
    base_url, handler = stub_server
    handler.default_behavior = (401, '{"error": "bad key"}')
    with pytest.raises(ProtocolError, match="status 401 .*bad key"):
        HttpLlmClient(base_url, "m", "wrong").complete([ChatMessage("user", "hi")])
    assert len(handler.requests_seen) == 1


def test_http_llm_malformed_body_is_protocol_error(stub_server):
    base_url, handler = stub_server
    handler.behaviors.append((200, json.dumps({"unexpected": True})))
    client = HttpLlmClient(base_url, "m")
    with pytest.raises(ProtocolError):
        client.complete([ChatMessage("user", "hi")])


@pytest.mark.parametrize(
    "body, error",
    [
        ({"choices": [{"message": {"content": None}}]}, "content is not a string"),
        ({"choices": [{"message": {"content": "hi"}}], "usage": "x"}, "usage is not an object"),
        (
            {"choices": [{"message": {"content": "hi"}}], "usage": {"prompt_tokens": "abc"}},
            "prompt_tokens is not an int",
        ),
        (
            {"choices": [{"message": {"content": "hi"}}], "usage": {"prompt_tokens": -1}},
            "prompt_tokens is negative",
        ),
    ],
    ids=["content-null", "usage-string", "prompt-tokens-string", "prompt-tokens-negative"],
)
def test_malformed_completion_ends_the_session(stub_server, prepared, body, error):
    base_url, handler = stub_server
    handler.default_behavior = (200, json.dumps(body))
    result = run_task(
        "Log me in.", prepared, HttpLlmClient(base_url, "m"), MockApiServer({}),
        ExactMatchJudge(),
    )
    assert not result.satisfied
    assert error in result.error
    assert len(handler.requests_seen) == 1


def test_http_llm_null_token_counts_fall_back_to_whitespace(stub_server):
    base_url, handler = stub_server
    handler.behaviors.append((200, json.dumps({
        "choices": [{"message": {"content": "two words"}}],
        "usage": {"prompt_tokens": None, "completion_tokens": None},
    })))
    reply = HttpLlmClient(base_url, "m").complete([ChatMessage("user", "one two three")])
    assert (reply.prompt_tokens, reply.completion_tokens) == (3, 2)


# -- mock API server -------------------------------------------------------------

def _coords_reversed(position: str) -> bool:
    first = float(position.split(",")[0])
    return abs(first) > 90


def route_planning_handler(args):
    if _coords_reversed(str(args["origin"])) or _coords_reversed(str(args["dest"])):
        return ApiResponse(200, "info_code:20000")
    return ApiResponse(200, '{"route": "ok"}')


def test_mock_server_semantic_error_branch():
    server = MockApiServer({"route_planning": route_planning_handler})
    bad = ApiRequest(
        "route_planning", (("origin", "116.4,39.9"), ("dest", "121.5,31.2"))
    )
    response = server.execute(bad)
    assert response.status == 200
    assert "info_code:20000" in response.body


def test_mock_server_happy_path():
    server = MockApiServer({"route_planning": route_planning_handler})
    good = ApiRequest(
        "route_planning", (("origin", "39.9,116.4"), ("dest", "31.2,121.5"))
    )
    assert server.execute(good).body == '{"route": "ok"}'


def test_mock_server_unknown_api_is_not_found():
    server = MockApiServer({})
    response = server.execute(ApiRequest("ghost", ()))
    assert response.status == 404
    assert response.body == "unknown api"


# -- HTTP API executor -------------------------------------------------------------

def test_http_executor_get_query_params(stub_server):
    base_url, handler = stub_server
    handler.behaviors.append((200, '{"ok": true}'))
    executor = HttpApiExecutor(base_url, {"search": ("GET", "/search")})
    response = executor.execute(ApiRequest("search", (("q", "x"), ("n", 2))))
    assert response.status == 200
    method, path, _ = handler.requests_seen[0]
    assert method == "GET"
    assert path == "/search?q=x&n=2"


def test_http_executor_post_json_body(stub_server):
    base_url, handler = stub_server
    handler.behaviors.append((201, "made"))
    executor = HttpApiExecutor(base_url, {"make": ("POST", "/make/{kind}")})
    response = executor.execute(
        ApiRequest("make", (("kind", "alarm"), ("urgent", True), ("at", (1, 2))))
    )
    assert (response.status, response.body) == (201, "made")
    method, path, body = handler.requests_seen[0]
    assert (method, path) == ("POST", "/make/alarm")
    assert json.loads(body) == {"urgent": True, "at": [1, 2]}


def test_http_executor_preserves_error_body(stub_server):
    base_url, handler = stub_server
    handler.behaviors.append((404, "gone"))
    executor = HttpApiExecutor(base_url, {"g": ("GET", "/g")})
    response = executor.execute(ApiRequest("g", ()))
    assert (response.status, response.body) == (404, "gone")


def test_http_executor_unknown_api_via_route_map(stub_server):
    base_url, _handler = stub_server
    executor = HttpApiExecutor(base_url, {})
    assert executor.execute(ApiRequest("nope", ())).status == 404


def test_http_executor_percent_encodes_path_values(stub_server):
    base_url, handler = stub_server
    executor = HttpApiExecutor(base_url, {"x": ("GET", "/x/{v}")})
    assert executor.execute(ApiRequest("x", (("v", "a/b?c#d"),))).status == 200
    assert handler.requests_seen == [("GET", "/x/a%2Fb%3Fc%23d", "")]


# -- retry contract ----------------------------------------------------------------

def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_http_executor_returns_5xx_body_without_retry(stub_server):
    base_url, handler = stub_server
    handler.behaviors.extend([(503, "busy"), (200, "late")])
    executor = HttpApiExecutor(base_url, {"g": ("GET", "/g")})
    response = executor.execute(ApiRequest("g", ()))
    assert (response.status, response.body) == (503, "busy")
    assert len(handler.requests_seen) == 1


def test_http_executor_unreachable_after_retry_attempts(monkeypatch):
    sent = []
    original_send = requests.Session.send

    def counting_send(self, request, **kwargs):
        sent.append(request.url)
        return original_send(self, request, **kwargs)

    monkeypatch.setattr(requests.Session, "send", counting_send)
    base_url = f"http://127.0.0.1:{_closed_port()}"
    executor = HttpApiExecutor(base_url, {"g": ("GET", "/g")})
    with pytest.raises(TransportError):
        executor.execute(ApiRequest("g", ()))
    assert len(sent) == RETRY_ATTEMPTS


def test_http_executor_post_sent_once_when_answer_is_lost(stub_server):
    # The server may have acted on the request, so it is not sent again.
    base_url, handler = stub_server
    handler.default_behavior = DROP
    executor = HttpApiExecutor(base_url, {"book": ("POST", "/book")})
    with pytest.raises(TransportError):
        executor.execute(ApiRequest("book", (("seats", 2),)))
    assert handler.requests_seen == [("POST", "/book", '{"seats": 2}')]


def test_http_executor_post_retried_after_a_connect_timeout(monkeypatch, stub_server):
    base_url, handler = stub_server
    handler.default_behavior = (200, "booked")
    sent = []
    original_send = requests.Session.send

    def send_after_one_timeout(self, request, **kwargs):
        sent.append(request.url)
        if len(sent) == 1:
            raise requests.ConnectTimeout("connect timed out")
        return original_send(self, request, **kwargs)

    monkeypatch.setattr(requests.Session, "send", send_after_one_timeout)
    executor = HttpApiExecutor(base_url, {"book": ("POST", "/book")})
    response = executor.execute(ApiRequest("book", (("seats", 2),)))
    assert (response.status, response.body) == (200, "booked")
    assert len(sent) == 2
    assert handler.requests_seen == [("POST", "/book", '{"seats": 2}')]


def test_http_executor_post_retried_when_never_sent(monkeypatch):
    sent = []
    original_send = requests.Session.send

    def counting_send(self, request, **kwargs):
        sent.append(request.url)
        return original_send(self, request, **kwargs)

    monkeypatch.setattr(requests.Session, "send", counting_send)
    base_url = f"http://127.0.0.1:{_closed_port()}"
    executor = HttpApiExecutor(base_url, {"book": ("POST", "/book")})
    with pytest.raises(TransportError):
        executor.execute(ApiRequest("book", ()))
    assert len(sent) == RETRY_ATTEMPTS
