"""Pre-execution scanning of parsed requests against the documentation.

Detection runs the stages in ascending order and stops at the first hit:
unparseable output, then API name, then parameter names, then value types.
Within a family the sub-checks run selection -> literal -> semantic -> other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

from .doc_model import ApiDocument, ApiSpec, lookup_api, normalize_name
from .errors import NoErrorFindingError, UnknownTruthApiError
from .request_codec import (
    CLOSE_MARKER,
    OPEN_MARKER,
    ApiRequest,
    ParseOutcome,
    serialize_value,
    type_matches,
    values_equal,
)
from .retrieval import PreparedDoc, RelevantSet, SimilarityModel

__all__ = [
    "ErrorType",
    "DetectionFinding",
    "detect",
    "classify_against_truth",
    "render_feedback",
    "REGENERATE_SENTENCE",
]


class ErrorType(str, Enum):
    """Error taxonomy for generated API requests."""

    E1 = "E1"
    E2_1 = "E2.1"
    E2_2 = "E2.2"
    E2_3 = "E2.3"
    E2_OTHER = "E2.other"
    E3_1 = "E3.1"
    E3_2 = "E3.2"
    E3_3 = "E3.3"
    E3_OTHER = "E3.other"
    E4_1 = "E4.1"
    E4_OTHER = "E4.other"
    NONE = "none"

    @property
    def family(self) -> str:
        """``E1``/``E2``/``E3``/``E4``, or ``none``."""
        return self.value.split(".")[0] if self is not ErrorType.NONE else "none"


@dataclass(frozen=True)
class DetectionFinding:
    """One detection result with the return values the feedback needs.

    Field population follows the error type: E1 carries no names;
    selection and other errors carry the offending name only; literal and
    semantic errors add the suggested replacement; value errors carry the
    offending value (rendered as text) plus the parameter description.
    """

    error_type: ErrorType
    offending_name: str | None = None
    suggested_name: str | None = None
    param_description: str | None = None
    relevant_apis: RelevantSet = field(default_factory=RelevantSet)


def _match_name(
    name: str,
    doc: ApiDocument,
    candidates: Sequence[str],
    literal: Mapping[str, str],
    rank: Callable[[str], Sequence[float]],
    threshold: float,
) -> tuple[ErrorType, str | None]:
    """Name sub-cascade: selection (any documented name), then literal and
    semantic match against *candidates*.

    *literal* maps a normalized name to the first candidate of that form,
    and *rank* scores a name against every candidate, in order; the first
    of the best scores above *threshold* wins. Ties thus go to the earlier
    candidate, as in a scan of the candidates in order.
    """
    if name in doc.by_name:
        return ErrorType.E2_1, None
    suggested = literal.get(normalize_name(name))
    if suggested is not None:
        return ErrorType.E2_2, suggested
    scores = rank(name)
    best = max(scores, default=threshold)
    if best > threshold:
        return ErrorType.E2_3, candidates[scores.index(best)]
    return ErrorType.E2_OTHER, None


def _match_param(
    key: str, named: ApiSpec, doc: ApiDocument, model: SimilarityModel,
    threshold: float,
) -> tuple[ErrorType, str | None]:
    """Parameter sub-cascade: selection against other APIs, literal match
    against other APIs, semantic match against the named API's own params.

    Selection and literal match read the other APIs' parameters whose
    normalized name is the key's, in doc order. A parameter named as the
    key is among them, so the key is a selection error when it is one of
    them, and otherwise the first of them is the literal match, the one a
    scan of the doc would find first.
    """
    literal = None
    for owner, param_name in doc.params_by_normalized_name.get(normalize_name(key), ()):
        if owner != named.name:
            if param_name == key:
                return ErrorType.E3_1, None
            if literal is None:
                literal = param_name
    if literal is not None:
        return ErrorType.E3_2, literal
    best_name, best_score = None, threshold
    for p in named.params:
        score = model.score(key, p.name)
        if score > best_score:
            best_name, best_score = p.name, score
    if best_name is not None:
        return ErrorType.E3_3, best_name
    return ErrorType.E3_OTHER, None


def _cascade(
    req: ApiRequest,
    named: ApiSpec,
    doc: ApiDocument,
    model: SimilarityModel,
    threshold: float,
) -> tuple[ErrorType, str | None, str | None, str | None]:
    """The stages after the API name, in order: unknown key, missing
    required parameter, value type, for a request whose name is accepted
    as the API *named*. Returns the finding's error type, offending name,
    suggested name and parameter description."""
    params = named.params_by_name
    for key, _ in req.args:
        if key not in params:
            error_type, suggested = _match_param(key, named, doc, model, threshold)
            return error_type, key, suggested, None
    given = dict(req.args)
    for p in named.params:
        if p.required and p.name not in given:
            return ErrorType.E3_OTHER, p.name, None, None
    # Every key is documented by now.
    for key, value in req.args:
        param = params[key]
        if not type_matches(value, param.value_type):
            return ErrorType.E4_1, serialize_value(value), None, param.description
    return ErrorType.NONE, None, None, None


def detect(
    outcome: ParseOutcome,
    relevant: RelevantSet,
    prepared: PreparedDoc,
    threshold: float,
) -> DetectionFinding:
    """Scan a parsed request and return the first error found, if any.

    The APIs retrieved as relevant to the instruction (see
    ``retrieval.retrieve_relevant_apis``) decide whether the API name
    matches it; the name and parameter cascades then pin down the cause.
    A wrong name is matched against every documented name through the
    prepared doc's name ranker. A finding of ``NONE`` means the request
    name is relevant, every key is documented and every value type is
    compatible.
    """
    if not outcome.ok:
        return DetectionFinding(ErrorType.E1, relevant_apis=relevant)
    req = outcome.request
    assert req is not None
    doc = prepared.doc
    if req.name not in relevant:
        error_type, suggested = _match_name(
            req.name, doc, doc.api_names, doc.api_by_normalized_name,
            prepared.rank_names, threshold,
        )
        return DetectionFinding(error_type, req.name, suggested, relevant_apis=relevant)
    # Relevant-set names come from the document, so the lookup finds them.
    error_type, offending, suggested, description = _cascade(
        req, lookup_api(doc, req.name), doc, prepared.model, threshold
    )
    return DetectionFinding(error_type, offending, suggested, description, relevant)


def classify_against_truth(
    generated: ParseOutcome,
    truth: ApiRequest,
    doc: ApiDocument,
    model: SimilarityModel,
    threshold: float,
) -> ErrorType:
    """Label a generated request against its ground truth.

    Same cascade as :func:`detect`, with the ground-truth request as the
    correctness baseline instead of the retrieved set, so a wrong name is
    matched against the truth's name alone. A request that is well formed
    and type-correct but differs from the truth in argument values (or
    argument choice) is the residual value error.
    """
    truth_spec = lookup_api(doc, truth.name)
    if truth_spec is None:
        raise UnknownTruthApiError(f"ground-truth API {truth.name!r} not in document")

    if not generated.ok:
        return ErrorType.E1
    req = generated.request
    assert req is not None

    if req.name != truth.name:
        return _match_name(
            req.name, doc, (truth.name,), {normalize_name(truth.name): truth.name},
            lambda query: (model.score(query, truth.name),), threshold,
        )[0]
    error_type = _cascade(req, truth_spec, doc, model, threshold)[0]
    if error_type is not ErrorType.NONE:
        return error_type

    gen_args = dict(req.args)
    truth_args = dict(truth.args)
    if gen_args.keys() != truth_args.keys():
        return ErrorType.E4_OTHER
    for key, value in truth_args.items():
        if not values_equal(gen_args[key], value):
            return ErrorType.E4_OTHER
    return ErrorType.NONE


DECLARE_SENTENCE = "The API request you generated contains an error."
REGENERATE_SENTENCE = (
    f"Please regenerate the API request between {OPEN_MARKER} and {CLOSE_MARKER}."
)

_LOCATE = {
    "E1": "No parseable API request was found in your output.",
    "E2": "The error is in the API name: you used '{offending}'.",
    "E3": "The error is in the parameter name '{offending}'.",
    "E4": "The error is in the parameter value {offending}.",
}

# The Exclude and Suggest parts for each error that ``detect`` finds (E1
# has no Exclude). E4.other, right types but wrong values, is a label of
# ``classify_against_truth`` only and has no feedback.
_FEEDBACK = {
    ErrorType.E1: (
        None,
        "Your output did not contain a parseable API request in the format"
        " APINAME(key1=value1, key2=value2, ...).",
    ),
    ErrorType.E2_1: (
        "The request format itself is correct.",
        "'{offending}' exists in the documentation but does not match the"
        " user instruction; you selected the wrong API.",
    ),
    ErrorType.E2_2: (
        "The API name is not a selection error.",
        "'{offending}' uses the wrong naming format; the documented API"
        " is named '{suggested}'.",
    ),
    ErrorType.E2_3: (
        "The API name is not a selection error or a formatting error.",
        "'{offending}' does not exist; the semantically closest documented"
        " API is '{suggested}'.",
    ),
    ErrorType.E2_OTHER: (
        "The API name is not a selection error, a formatting error, or a"
        " semantically similar name.",
        "'{offending}' does not appear in the API documentation.",
    ),
    ErrorType.E3_1: (
        "The API name is correct.",
        "'{offending}' is a parameter of a different API, not of the API"
        " you called.",
    ),
    ErrorType.E3_2: (
        "The parameter name is not a selection error.",
        "'{offending}' uses the wrong naming format; the documented"
        " parameter is named '{suggested}'.",
    ),
    ErrorType.E3_3: (
        "The parameter name is not a selection error or a formatting error.",
        "'{offending}' is not documented; the semantically closest"
        " documented parameter is '{suggested}'.",
    ),
    ErrorType.E3_OTHER: (
        "The parameter name is not a selection error, a formatting error, or a"
        " semantically similar name.",
        "No documented parameter of the called API matches '{offending}'."
        " If the documentation lists '{offending}' as required, include"
        " it; otherwise remove or replace it.",
    ),
    # The description of the documented parameter guides the fix.
    ErrorType.E4_1: (
        "The API name and all parameter names are correct.",
        "The value {offending} does not match the documented parameter type."
        " Parameter description: {description}",
    ),
}

# Follows the Suggest part of a wrong or unknown API name when the API most
# relevant to the instruction is another one.
_MOST_RELEVANT = " The API most relevant to the instruction is '{}'."


def render_feedback(finding: DetectionFinding) -> str:
    """Render the five-part corrective prompt (declare, locate, exclude,
    suggest, regenerate) for a non-empty finding as one string.

    Declare and Regenerate are always present; Exclude is omitted for the
    parse error, which has no earlier stage to rule out. A clean finding
    (``NONE``) and E4.other, which ``detect`` never finds, have no feedback.
    """
    e = finding.error_type
    if e not in _FEEDBACK:
        raise NoErrorFindingError(f"no feedback for error type {e.value!r}")

    offending = finding.offending_name
    exclude, suggest = _FEEDBACK[e]
    parts = [DECLARE_SENTENCE, _LOCATE[e.family].format(offending=offending)]
    if exclude is not None:
        parts.append(exclude)
    suggest = suggest.format(
        offending=offending,
        suggested=finding.suggested_name,
        description=finding.param_description,
    )
    top = finding.relevant_apis.names[0] if finding.relevant_apis.names else None
    if e in (ErrorType.E2_1, ErrorType.E2_OTHER) and top not in (None, offending):
        suggest += _MOST_RELEVANT.format(top)
    parts.append(suggest)
    parts.append(REGENERATE_SENTENCE)
    return " ".join(parts)
