"""Independent brute-force oracles used to pre-verify fixtures and check
results. These deliberately share no code with the package: TF-IDF cosine
is computed over plain dicts, rank correlation uses the classic d-squared
formula, the finding-arity table is written out literally, the name and
parameter cascades walk the raw doc JSON, the fallback request extractor
is the first, rescanning version, and the request parser is the class that
read each token's kind from its first character. The eager chunk index takes
the package's similarity model, whose vectors it must reproduce bit for
bit, but reads the raw doc JSON and splits sentences itself.
"""

from __future__ import annotations

import math
import re

from autofeedback import ApiRequest, DetectionFinding, ErrorType, ParseOutcome
from autofeedback.request_codec import MAX_NESTING

_TOKEN = re.compile(r"[^a-z0-9]+")


def oracle_tokens(text: str) -> list[str]:
    return [t for t in _TOKEN.split(text.lower()) if t]


def oracle_tfidf_score(a: str, b: str, corpus: list[str]) -> float:
    """TF-IDF cosine: tf = raw count, idf = ln((1+n)/(1+df)) + 1."""
    n = len(corpus)
    doc_tokens = [set(oracle_tokens(d)) for d in corpus]

    def idf(token: str) -> float:
        df = sum(1 for d in doc_tokens if token in d)
        return math.log((1 + n) / (1 + df)) + 1.0

    def weights(text: str) -> dict[str, float]:
        counts: dict[str, int] = {}
        for t in oracle_tokens(text):
            counts[t] = counts.get(t, 0) + 1
        return {t: c * idf(t) for t, c in counts.items()}

    wa, wb = weights(a), weights(b)
    if wa == wb:
        return 1.0 if wa else 0.0
    dot = sum(w * wb.get(t, 0.0) for t, w in wa.items())
    na = math.sqrt(sum(w * w for w in wa.values()))
    nb = math.sqrt(sum(w * w for w in wb.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return max(0.0, min(1.0, dot / (na * nb)))


def oracle_corpus_from_raw(raw_doc: dict) -> list[str]:
    """Rebuild the retriever corpus directly from the fixture JSON: one
    entry per API holding its name and every description/message text."""
    corpus = []
    for api in raw_doc["apis"]:
        parts = [api["name"], api.get("description", "")]
        for p in api.get("parameters", []):
            parts.append(p.get("description", ""))
        for e in api.get("exceptions", []):
            parts.append(f"Error {e['code']}: {e['message']}")
        corpus.append("\n".join(part for part in parts if part))
    return corpus


def oracle_spearman(xs: list[float], ys: list[float]) -> float:
    """Tie-free rank formula: 1 - 6 * sum(d^2) / (n * (n^2 - 1))."""
    n = len(xs)
    rank_x = {v: i + 1 for i, v in enumerate(sorted(xs))}
    rank_y = {v: i + 1 for i, v in enumerate(sorted(ys))}
    d_squared = sum((rank_x[a] - rank_y[b]) ** 2 for a, b in zip(xs, ys))
    return 1.0 - 6.0 * d_squared / (n * (n * n - 1))


# Return-value arity per error type: (offending?, suggested?, description?).
ARITY_TABLE = {
    ErrorType.E1: (False, False, False),
    ErrorType.E2_1: (True, False, False),
    ErrorType.E2_2: (True, True, False),
    ErrorType.E2_3: (True, True, False),
    ErrorType.E2_OTHER: (True, False, False),
    ErrorType.E3_1: (True, False, False),
    ErrorType.E3_2: (True, True, False),
    ErrorType.E3_3: (True, True, False),
    ErrorType.E3_OTHER: (True, False, False),
    ErrorType.E4_1: (True, False, True),
    ErrorType.E4_OTHER: (True, False, True),
    ErrorType.NONE: (False, False, False),
}


def arity_ok(finding: DetectionFinding) -> bool:
    offending, suggested, description = ARITY_TABLE[finding.error_type]
    return (
        (finding.offending_name is not None) == offending
        and (finding.suggested_name is not None) == suggested
        and (finding.param_description is not None) == description
    )


# -- the name and parameter cascades as linear scans of the raw doc ---------
#
# A copy of the scans the static scanner made before it read indices: every
# question walks the documented names in doc order, and ties go to the first
# name met. Labels are the ``ErrorType`` values as plain strings.

_ORACLE_NON_LETTER = re.compile(r"[^a-zA-Z]")


def oracle_normalize(name: str) -> str:
    return _ORACLE_NON_LETTER.sub("", name).lower()


def oracle_match_name(name, raw_doc, candidates, score, threshold):
    """Selection against every documented API, then literal and semantic
    match against *candidates*; ``(label, suggested)``."""
    if any(api["name"] == name for api in raw_doc["apis"]):
        return "E2.1", None
    normalized = oracle_normalize(name)
    for candidate in candidates:
        if oracle_normalize(candidate) == normalized:
            return "E2.2", candidate
    best_name, best_score = None, threshold
    for candidate in candidates:
        s = score(name, candidate)
        if s > best_score:
            best_name, best_score = candidate, s
    if best_name is not None:
        return "E2.3", best_name
    return "E2.other", None


def oracle_match_param(key, named, raw_doc, score, threshold):
    """Selection and literal match against the parameters of every other
    API, then semantic match against *named*'s own; ``(label, suggested)``."""
    other_params = [
        p["name"]
        for api in raw_doc["apis"]
        if api["name"] != named
        for p in api.get("parameters", [])
    ]
    if any(p == key for p in other_params):
        return "E3.1", None
    normalized = oracle_normalize(key)
    for p in other_params:
        if oracle_normalize(p) == normalized:
            return "E3.2", p
    own = next(api for api in raw_doc["apis"] if api["name"] == named)
    best_name, best_score = None, threshold
    for p in own.get("parameters", []):
        s = score(key, p["name"])
        if s > best_score:
            best_name, best_score = p["name"], s
    if best_name is not None:
        return "E3.3", best_name
    return "E3.other", None


# -- the chunk index as it was built before chunking was deferred ----------
#
# Every API is chunked up front, in doc order, from the raw doc JSON; kept
# as the reference for the index that chunks an API on its first lookup.
# Chunks are plain ``(api_name, sentences, text, vector)`` tuples.

_ORACLE_SENTENCE_END = re.compile(r"(?<=[.?!])\s+|\n+")


def oracle_eager_chunk_index(raw_doc, model, chunk_threshold: float) -> dict[str, tuple]:
    """Every API's chunks: its description, parameter descriptions and
    ``Error code: message`` lines, split after sentence-final punctuation
    and at newlines; a sentence joins the current chunk while its score
    against the chunk's joined text stays at or above *chunk_threshold*,
    and each chunk's vector embeds its text."""
    index = {}
    for api in raw_doc["apis"]:
        parts = [api.get("description", "")]
        parts += [p.get("description", "") for p in api.get("parameters", [])]
        parts += [f"Error {e['code']}: {e['message']}" for e in api.get("exceptions", [])]
        text = "\n".join(part for part in parts if part)
        sentences = [s.strip() for s in _ORACLE_SENTENCE_END.split(text) if s.strip()]
        groups: list[list[str]] = []
        for sentence in sentences:
            if groups and model.score(sentence, " ".join(groups[-1])) >= chunk_threshold:
                groups[-1].append(sentence)
            else:
                groups.append([sentence])
        index[api["name"]] = tuple(
            (api["name"], tuple(group), " ".join(group), model.embed(" ".join(group)))
            for group in groups
        )
    return index


# -- the fallback request extractor as it was first written -----------------
#
# It rescans from every ``name(`` and so takes time quadratic in the reply;
# kept as the reference for the one-pass extractor.
_ORACLE_CALL_START = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\(")
_ORACLE_OPEN = "<<API>>"
_ORACLE_CLOSE = "<</API>>"


def _oracle_scan_balanced_call(text: str, start: int) -> str | None:
    open_idx = text.index("(", start)
    depth = 1
    i = open_idx + 1
    quote = None
    while i < len(text):
        c = text[i]
        if quote is not None:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
        elif c in "'\"":
            quote = c
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
        i += 1
    return None


def oracle_extract_request_block(llm_output: str) -> str | None:
    close = llm_output.find(_ORACLE_CLOSE)
    if close != -1:
        open_idx = llm_output.rfind(_ORACLE_OPEN, 0, close)
        if open_idx != -1:
            return llm_output[open_idx + len(_ORACLE_OPEN) : close].strip()
    for m in _ORACLE_CALL_START.finditer(llm_output):
        candidate = _oracle_scan_balanced_call(llm_output, m.start())
        if candidate is not None:
            return candidate.strip()
    return None


# -- the request parser as a class over untyped tokens ----------------------
#
# The recursive descent the codec ran before its tokens carried their kind:
# each token is the text it matched, and its kind is read back from its
# first character. Kept as the reference for the typed-token parser.

_ORACLE_TOKEN = re.compile(
    r"""\s*(
        "[^"\\]*(?:\\.[^"\\]*)*"
      | '[^'\\]*(?:\\.[^'\\]*)*'
      | -?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?
      | [A-Za-z_][A-Za-z0-9_]*
      | \\.
      | \S
      | \Z
    )""",
    re.VERBOSE | re.DOTALL,
)
_ORACLE_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ORACLE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}
_ORACLE_CLOSERS = {"[": "]", "(": ")", "{": "}"}
_ORACLE_BOOLS = {"true": True, "false": False}


class _OracleSyntaxError(Exception):
    pass


class _OracleParser:
    def __init__(self, block: str):
        self.tokens = _ORACLE_TOKEN.findall(block)
        self.pos = 0
        self.depth = 0

    def _next(self) -> str:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _expect(self, token: str):
        if self._next() != token:
            raise _OracleSyntaxError(f"expected {token!r} at token {self.pos - 1}")

    def _identifier(self) -> str:
        token = self._next()
        if not (token.isidentifier() and token.isascii()):
            raise _OracleSyntaxError(f"expected an identifier at token {self.pos - 1}")
        return token

    def _items(self, close: str):
        while self.tokens[self.pos] != close:
            yield
            if self.tokens[self.pos] != close:
                self._expect(",")
        self.pos += 1

    def _dict_key(self) -> str:
        key = self._value()
        if not isinstance(key, str):
            raise _OracleSyntaxError(f"dict key must be a string at token {self.pos - 1}")
        self._expect(":")
        return key

    def _container(self, opener: str):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _OracleSyntaxError(f"nesting deeper than {MAX_NESTING}")
        items = self._items(_ORACLE_CLOSERS[opener])
        if opener == "{":
            value = {self._dict_key(): self._value() for _ in items}
        else:
            value = [self._value() for _ in items]
        self.depth -= 1
        return tuple(value) if opener == "(" else value

    def _value(self):
        token = self._next()
        head = token[:1]
        if head in _ORACLE_CLOSERS:
            return self._container(head)
        if len(token) > 1 and head in "'\"":
            body = token[1:-1]
            if "\\" in body:
                body = _ORACLE_ESCAPE.sub(lambda m: _ORACLE_ESCAPES.get(m[1], m[1]), body)
            return body
        if head.isdecimal() or (len(token) > 1 and head in "-."):
            try:
                number = float(token) if any(c in token for c in ".eE") else int(token)
            except ValueError:
                raise _OracleSyntaxError(f"integer too long at token {self.pos - 1}") from None
            if isinstance(number, float) and not math.isfinite(number):
                raise _OracleSyntaxError(f"number out of range at token {self.pos - 1}")
            return number
        if token.lower() in _ORACLE_BOOLS:
            return _ORACLE_BOOLS[token.lower()]
        raise _OracleSyntaxError(f"expected a literal at token {self.pos - 1}")

    def request(self) -> ApiRequest:
        name = self._identifier()
        self._expect("(")
        args: dict = {}
        for _ in self._items(")"):
            key = self._identifier()
            self._expect("=")
            value = self._value()
            if key in args:
                raise _OracleSyntaxError(f"duplicate argument key {key!r}")
            args[key] = value
        self._expect("")
        return ApiRequest(name, tuple(args.items()))


def oracle_parse_request(block: str) -> ParseOutcome:
    try:
        return ParseOutcome(_OracleParser(block).request())
    except _OracleSyntaxError:
        return ParseOutcome(None)
