"""Dynamic feedback: execute the request, judge the response, retrieve the
matching error details from documentation, and ask the LLM for a corrected
request with the full record history in a Thought/Action/Observation prompt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .gateways import ApiExecutor, ApiResponse, ChatMessage, LlmClient
from .request_codec import (
    CLOSE_MARKER,
    OPEN_MARKER,
    ApiRequest,
    parse_llm_output,
    serialize_request,
)
from .retrieval import PreparedDoc, RetrievedMessage, retrieve_error_message

__all__ = [
    "FeedbackRecord",
    "DynamicOutcome",
    "ExactMatchJudge",
    "run_dynamic_loop",
    "assemble_react_prompt",
]


@dataclass(frozen=True)
class FeedbackRecord:
    """One loop iteration: what was sent, what came back, what the LLM
    thought, and what it sent next."""

    iteration: int
    action: ApiRequest
    response: ApiResponse
    error_message: RetrievedMessage | None
    thought: str
    new_action: ApiRequest


@dataclass(frozen=True)
class DynamicOutcome:
    satisfied: bool


class ExactMatchJudge:
    """Decides whether an API response satisfies the user's task: it
    accepts status 200 when the request, if ground truth is known, matches
    it canonically."""

    def __init__(self, ground_truth: ApiRequest | None = None):
        self._truth = (
            serialize_request(ground_truth) if ground_truth is not None else None
        )

    def accepts(self, request: ApiRequest, response: ApiResponse) -> bool:
        if response.status != 200:
            return False
        if self._truth is None:
            return True
        return serialize_request(request) == self._truth


def _observation_line(response: ApiResponse, message: RetrievedMessage | None) -> str:
    error_text = message.text if message is not None else "none"
    return f"Observation: status={response.status} body={response.body} error_message={error_text}"


_REACT_INSTRUCTIONS = (
    'Respond with a line starting with "Thought:" that explains the'
    f" correction, then the corrected API request between {OPEN_MARKER} and {CLOSE_MARKER}."
)


def assemble_react_prompt(
    history: Sequence[FeedbackRecord],
    action: ApiRequest,
    observation: tuple[ApiResponse, RetrievedMessage | None],
) -> str:
    """Render past records and the current turn as Action/Observation lines."""
    lines: list[str] = []
    for record in history:
        lines.append(f"Action: {serialize_request(record.action)}")
        lines.append(_observation_line(record.response, record.error_message))
        lines.append(f"Thought: {record.thought}")
    response, message = observation
    lines.append(f"Action: {serialize_request(action)}")
    lines.append(_observation_line(response, message))
    lines.append(_REACT_INSTRUCTIONS)
    return "\n".join(lines)


def _split_thought(reply_text: str) -> str:
    """Pull the thought out of a reply; falls back to the text before the
    request block."""
    for line in reply_text.splitlines():
        stripped = line.strip()
        if stripped.lower().startswith("thought:"):
            return stripped[len("thought:") :].strip()
    return reply_text.split(OPEN_MARKER, 1)[0].strip()


_REASK_MESSAGE = (
    "Your previous reply did not contain a parseable API request. "
    + _REACT_INSTRUCTIONS
)


def _ask_for_correction(
    llm: LlmClient, prompt: str, system: ChatMessage
) -> tuple[ApiRequest | None, str]:
    """One LLM exchange with a single re-ask on unparseable output.

    Returns (request or None, thought).
    """
    messages = [system, ChatMessage("user", prompt)]
    reply = llm.complete(messages)
    outcome = parse_llm_output(reply.text)
    if outcome.ok:
        return outcome.request, _split_thought(reply.text)
    messages.append(ChatMessage("assistant", reply.text))
    messages.append(ChatMessage("user", _REASK_MESSAGE))
    retry = llm.complete(messages)
    outcome = parse_llm_output(retry.text)
    if outcome.ok:
        return outcome.request, _split_thought(retry.text)
    return None, _split_thought(reply.text)


def run_dynamic_loop(
    request: ApiRequest,
    prepared: PreparedDoc,
    executor: ApiExecutor,
    llm: LlmClient,
    judge: ExactMatchJudge,
    n_max: int,
    *,
    static_check: Callable[[ApiRequest], bool],
    records: list[FeedbackRecord],
) -> DynamicOutcome:
    """Execute-and-correct loop bounded by *n_max* iterations.

    Per iteration: retrieve the text of the prepared doc's chunk index
    closest to the request plus response body, prompt the LLM with the full
    history, adopt its corrected request, and re-execute. An unparseable
    correction is re-asked once; a correction that is still unparseable (or
    fails *static_check*) burns the iteration and resends the previous
    request. With ``n_max=0`` the request is executed exactly once and no
    LLM call happens.

    *records*, empty on entry, receives each record as it completes, so a
    failure mid-loop still leaves the earlier records with the caller. An
    error the executor, the LLM or the retrieval raises propagates as
    raised. The prepared doc's system message opens every correction
    exchange.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    response = executor.execute(request)
    satisfied = judge.accepts(request, response)
    while not satisfied and len(records) < n_max:
        query = f"{serialize_request(request)}\n{response.body}"
        message = retrieve_error_message(
            request.name, query, prepared.index, prepared.model
        )
        prompt = assemble_react_prompt(records, request, (response, message))
        new_request, thought = _ask_for_correction(llm, prompt, prepared.system)
        if new_request is None or not static_check(new_request):
            new_request = request  # failed iteration: resend the old request
        records.append(
            FeedbackRecord(
                iteration=len(records),
                action=request,
                response=response,
                error_message=message,
                thought=thought,
                new_action=new_request,
            )
        )
        request = new_request
        response = executor.execute(request)
        satisfied = judge.accepts(request, response)
    return DynamicOutcome(satisfied)
