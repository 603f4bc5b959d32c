"""Pluggable boundaries: LLM chat clients and API executors.

Each boundary has a real HTTP implementation (OpenAI-compatible chat wire
shape; JSON/query-string API calls) and a deterministic in-process double
so the whole pipeline can run and be tested offline.
"""

from __future__ import annotations

import json
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal, Mapping, Sequence
from urllib.parse import quote

import requests
from urllib3.exceptions import ConnectTimeoutError

from .errors import ProtocolError, TransportError
from .request_codec import ApiRequest, Value, serialize_value

__all__ = [
    "Role",
    "ChatMessage",
    "LlmReply",
    "LlmClient",
    "ScriptedLlm",
    "HttpLlmClient",
    "ApiResponse",
    "ApiExecutor",
    "MockApiServer",
    "HttpApiExecutor",
    "whitespace_tokens",
]

Role = Literal["system", "user", "assistant"]

RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 1.0  # seconds before the second attempt; doubles after
LLM_TIMEOUT = 60.0  # seconds per attempt of a chat completion
HTTP_TIMEOUT = 30.0  # seconds per attempt of any other request


@dataclass(frozen=True)
class ChatMessage:
    role: Role
    content: str

    @cached_property
    def tokens(self) -> int:
        """Whitespace token count of the content, counted on first use and
        kept, since a conversation resends its messages on every call."""
        return whitespace_tokens(self.content)


@dataclass(frozen=True)
class LlmReply:
    """One completion plus its token accounting."""

    text: str
    prompt_tokens: int
    completion_tokens: int


def whitespace_tokens(text: str) -> int:
    """Deterministic token-count proxy for clients that report no usage."""
    return len(text.split())


class LlmClient(ABC):
    """Chat-completion interface; implementations must be replayable when
    they claim determinism."""

    @abstractmethod
    def complete(self, messages: Sequence[ChatMessage]) -> LlmReply: ...


class ScriptedLlm(LlmClient):
    """Replays a fixed list of replies; the last one repeats forever.

    Every received prompt is recorded for assertions. One instance holds
    per-session state and must not be shared across concurrent sessions.
    """

    def __init__(self, script: Sequence[str]):
        if not script:
            raise ValueError("script must be non-empty")
        self._script = list(script)
        self.received_prompts: list[tuple[ChatMessage, ...]] = []

    @property
    def calls(self) -> int:
        return len(self.received_prompts)

    def complete(self, messages: Sequence[ChatMessage]) -> LlmReply:
        index = min(len(self.received_prompts), len(self._script) - 1)
        self.received_prompts.append(tuple(messages))
        reply = self._script[index]
        prompt_tokens = sum(m.tokens for m in messages)
        return LlmReply(reply, prompt_tokens, whitespace_tokens(reply))


def _never_sent(exc: Exception) -> bool:
    """Whether the request failed while connecting, before any of it left."""
    if isinstance(exc, requests.ConnectTimeout):
        return True
    reason = getattr(exc.args[0], "reason", None) if exc.args else None
    # urllib3's NewConnectionError (refused, unresolvable) subclasses this.
    return isinstance(reason, ConnectTimeoutError)


def _send_with_retries(
    send: Callable[[], requests.Response], url: str, *, idempotent: bool = True
) -> requests.Response:
    """Call *send* up to ``RETRY_ATTEMPTS`` times; the sleep between
    attempts starts at ``RETRY_BASE_DELAY`` and doubles. A failure is a
    ``RequestException`` or a ``TransportError`` raised by *send*. A request
    that is not *idempotent* is retried only when it was never sent, so a
    server that may have acted on it never sees it twice."""
    last_error: Exception | None = None
    for attempt in range(RETRY_ATTEMPTS):
        if attempt:
            time.sleep(RETRY_BASE_DELAY * 2 ** (attempt - 1))
        try:
            return send()
        except (requests.RequestException, TransportError) as exc:
            if not (idempotent or _never_sent(exc)):
                raise TransportError(
                    f"{url} failed after the request was sent; not retried: {exc}"
                ) from exc
            last_error = exc
    raise TransportError(f"{url} unreachable after {RETRY_ATTEMPTS} attempts") from last_error


def post_json(url: str, payload: dict, api_key: str, timeout: float) -> requests.Response:
    """POST *payload* as JSON with an optional Bearer key; a 5xx answer
    counts as a failed attempt."""
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    def send() -> requests.Response:
        response = requests.post(url, json=payload, headers=headers, timeout=timeout)
        if response.status_code >= 500:
            raise TransportError(f"server error {response.status_code} from {url}")
        return response

    return _send_with_retries(send, url)


class HttpLlmClient(LlmClient):
    """OpenAI-compatible chat-completions client.

    Sends ``{"model": ..., "messages": [{"role", "content"}]}`` and reads
    ``choices[0].message.content``. Token counts come from ``usage`` when
    present, otherwise from whitespace token counts. Content that is not a
    string, ``usage`` that is not an object and a count that is not an int
    are protocol errors.
    """

    def __init__(self, base_url: str, model_name: str, api_key: str = ""):
        self._url = base_url.rstrip("/") + "/chat/completions"
        self._model_name = model_name
        self._api_key = api_key

    def complete(self, messages: Sequence[ChatMessage]) -> LlmReply:
        payload = {
            "model": self._model_name,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
        }
        response = post_json(self._url, payload, self._api_key, LLM_TIMEOUT)
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
            usage = body.get("usage")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):
            raise ProtocolError(f"completion content is not a string: {text!r}")
        if usage is None:
            usage = {}
        elif not isinstance(usage, dict):
            raise ProtocolError(f"completion usage is not an object: {usage!r}")
        return LlmReply(
            text,
            _token_count(usage, "prompt_tokens", sum(m.tokens for m in messages)),
            _token_count(usage, "completion_tokens", whitespace_tokens(text)),
        )


def _token_count(usage: dict, key: str, fallback: int) -> int:
    """The count *usage* reports under *key*, or *fallback* when it
    reports none."""
    count = usage.get(key)
    if count is None:
        return fallback
    if not isinstance(count, int) or isinstance(count, bool):
        raise ProtocolError(f"completion usage {key} is not an int: {count!r}")
    return count


@dataclass(frozen=True)
class ApiResponse:
    """Raw result of executing a request; the body is kept byte-exact
    because retrieval queries and logs embed it verbatim."""

    status: int
    body: str


class ApiExecutor(ABC):
    """Executes parsed requests. Implementations never raise on an unknown
    API name; they answer with a not-found response instead."""

    @abstractmethod
    def execute(self, req: ApiRequest) -> ApiResponse: ...


Handler = Callable[[dict[str, Value]], ApiResponse]


class MockApiServer(ApiExecutor):
    """In-process executor dispatching on the request name.

    Handlers receive the argument dict and may inspect values to simulate
    semantic failures. Unknown names get a 404 with body ``unknown api``.
    """

    def __init__(self, routes: Mapping[str, Handler]):
        self._routes = dict(routes)
        self.executed: list[ApiRequest] = []

    def execute(self, req: ApiRequest) -> ApiResponse:
        self.executed.append(req)
        handler = self._routes.get(req.name)
        if handler is None:
            return ApiResponse(404, "unknown api")
        return handler(dict(req.args))


def _wire_value(value: Value) -> str:
    """Render one argument for a query string: strings stay raw, the rest
    use the canonical literal form."""
    if isinstance(value, str):
        return value
    return serialize_value(value)


class HttpApiExecutor(ApiExecutor):
    """Executes requests against real HTTP endpoints.

    ``route_map`` maps each API name to ``(method, path_template)``; path
    templates may reference arguments as ``{name}``, which are substituted
    percent-encoded and removed from the payload. GET sends remaining
    arguments as query parameters, other methods as a JSON body. Only GET
    is retried after the request may have reached the server.
    """

    def __init__(self, base_url: str, route_map: Mapping[str, tuple[str, str]]):
        self._base_url = base_url.rstrip("/")
        self._route_map = dict(route_map)

    def execute(self, req: ApiRequest) -> ApiResponse:
        route = self._route_map.get(req.name)
        if route is None:
            return ApiResponse(404, "unknown api")
        method, template = route
        args = dict(req.args)
        path = template
        for key in list(args):
            placeholder = "{" + key + "}"
            if placeholder in path:
                path = path.replace(
                    placeholder, quote(_wire_value(args.pop(key)), safe="")
                )
        url = self._base_url + path
        is_get = method.upper() == "GET"

        def send() -> requests.Response:
            if is_get:
                return requests.get(
                    url,
                    params={k: _wire_value(v) for k, v in args.items()},
                    timeout=HTTP_TIMEOUT,
                )
            return requests.request(
                method.upper(),
                url,
                data=json.dumps(args),
                headers={"Content-Type": "application/json"},
                timeout=HTTP_TIMEOUT,
            )

        # A 5xx answer is an API response like any other: returned, not retried.
        response = _send_with_retries(send, url, idempotent=is_get)
        return ApiResponse(response.status_code, response.text)
