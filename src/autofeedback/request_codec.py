r"""Extract and parse ``APINAME(key1=value1, ...)`` blocks from LLM output.

Requests carry keyword arguments only. The grammar, over ``_TOKEN``::

    request  = identifier "(" items(identifier "=" value) ")"
    value    = string | number | boolean | "[" items(value) "]"
             | "(" items(value) ")" | "{" items(string ":" value) "}"
    items(x) = [x ("," x)* [","]]

Identifiers are ``[A-Za-z_][A-Za-z0-9_]*``; booleans are ``true`` and
``false`` in any case. Strings take single or double quotes and the escapes
``\n``, ``\t`` and ``\r``; any other escaped character stands for itself.
Numbers are ``-?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?``, where ``\d`` is any
Unicode decimal digit, and are floats if they have a ``.`` or an exponent.
A number must have a finite value (``1e999`` is an error) and an integer
at most Python's integer-string digit limit (4,300 by default), so that
``serialize_request`` can write back every request that parses.
Trailing commas are allowed, and ``(x)`` is a one-element tuple. A repeated
argument key is an error; a repeated dict key keeps its last value.
Whitespace (whatever ``str.isspace`` accepts) may stand between any two
tokens, and containers nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from typing import Union

from .doc_model import ValueType

__all__ = [
    "Value",
    "ApiRequest",
    "ParseOutcome",
    "MAX_NESTING",
    "OPEN_MARKER",
    "CLOSE_MARKER",
    "extract_request_block",
    "parse_request",
    "parse_llm_output",
    "serialize_request",
    "serialize_value",
    "infer_value_type",
    "type_matches",
    "values_equal",
]

logger = logging.getLogger(__name__)

# Literal value of one argument; containers nest up to MAX_NESTING deep.
Value = Union[str, int, float, bool, list, tuple, dict]

# Deeper input is a syntax error; the recursive parser stays far from
# Python's recursion limit.
MAX_NESTING = 100

OPEN_MARKER = "<<API>>"
CLOSE_MARKER = "<</API>>"


@dataclass(frozen=True)
class ApiRequest:
    """A parsed API call: name plus ordered keyword arguments."""

    name: str
    args: tuple[tuple[str, Value], ...] = ()

    def __post_init__(self):
        keys = [k for k, _ in self.args]
        if len(keys) != len(set(keys)):
            raise ValueError("duplicate argument key")

    @property
    def arg_names(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.args)


@dataclass(frozen=True)
class ParseOutcome:
    """Result of parsing: the request, or ``None`` when the output holds no
    request that parses."""

    request: ApiRequest | None

    @property
    def ok(self) -> bool:
        return self.request is not None


# Fallback extraction wants a call-shaped candidate: name directly against
# the open paren. (The parser itself tolerates whitespace between tokens.)
_CALL_START = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\(")


# The characters a balanced-call scan acts on; every other one is skipped. A
# backslash takes the next character with it, as in ``_TOKEN``.
_SCAN_STOP = re.compile(r"[()'\"\\](?:(?<=\\).)?", re.DOTALL)


def _first_balanced_call(text: str) -> str | None:
    """The first ``name(...)`` of *text*, in start order, whose parens
    balance, in one pass.

    Each candidate ``name(`` starts a scan outside quotes: a quote opens
    or closes a string, parens outside strings count depth, and a backslash
    takes the next character with it (in a string the pair is skipped,
    outside only its second character acts). Scans started at different
    points can disagree on quote state, but there are only three states, so
    the scans are kept as one track per state, ``[quote, depth, closes]``:
    one depth for all of them, and for each depth the leftmost start of the
    scans that close on reaching it. Tracks that reach the same state are
    merged, smaller into larger.
    """
    calls = _CALL_START.finditer(text)
    call = next(calls, None)
    if call is None:
        return None
    first = call.start()
    next_open = call.end() - 1  # the paren of the next candidate to start
    tracks: list[list] = []
    ends: dict[int, int] = {}  # candidate start -> index of its closing paren
    for stop in _SCAN_STOP.finditer(text, next_open):
        c = stop.group()
        act = c[-1]  # outside a string, what a backslash pair stands for
        for track in tracks:
            quote, depth, closes = track
            if quote is not None:
                if c == quote:
                    track[0] = None
            elif act == "(":
                track[1] = depth + 1
            elif act == ")":
                track[1] = depth - 1
                closed = closes.pop(depth - 1, None)
                if closed is not None:
                    ends[closed] = stop.end() - 1
            elif act in "'\"":
                track[0] = act
        # The leftmost candidate has closed, so no other can be the answer.
        if first in ends:
            break
        if stop.start() == next_open and not ends:
            # Once a candidate has closed, no later one can be the answer.
            for track in tracks:
                if track[0] is None:
                    track[2][track[1] - 1] = call.start()
                    break
            else:
                tracks.append([None, 1, {0: call.start()}])
            call = next(calls, None)
            next_open = -1 if call is None else call.end() - 1
        if len(tracks) > 1:
            tracks = _merge_tracks(tracks)
    best = min(ends, default=-1)
    return text[best : ends[best] + 1] if ends else None


def _merge_tracks(tracks: list[list]) -> list[list]:
    """Merge the tracks in one quote state and drop those with no open scan."""
    by_quote: dict[str | None, list] = {}
    for track in tracks:
        if not track[2]:
            continue
        other = by_quote.setdefault(track[0], track)
        if other is not track:
            big, small = (other, track) if len(other[2]) >= len(track[2]) else (track, other)
            shift = big[1] - small[1]
            for depth, start in small[2].items():
                depth += shift
                big[2][depth] = min(big[2].get(depth, start), start)
            by_quote[track[0]] = big
    return list(by_quote.values())


def extract_request_block(llm_output: str) -> str | None:
    """Pull the request text out of raw LLM output.

    Prefers the span between the ``<<API>>`` and ``<</API>>`` markers; when
    both markers are absent, falls back to the first ``identifier(...)``
    substring with balanced parentheses. Returns ``None`` when neither is
    found. Only the first block is taken; extras are logged and ignored.
    """
    close = llm_output.find(CLOSE_MARKER)
    if close != -1:
        open_idx = llm_output.rfind(OPEN_MARKER, 0, close)
        if open_idx != -1:
            rest = llm_output[close + len(CLOSE_MARKER) :]
            if OPEN_MARKER in rest and CLOSE_MARKER in rest:
                logger.debug("multiple request blocks found; keeping the first")
            return llm_output[open_idx + len(OPEN_MARKER) : close].strip()
    return _first_balanced_call(llm_output)


class _SyntaxError(Exception):
    pass


# One token: optional whitespace, then a quoted string, a number, an
# identifier or any other single character, where a backslash takes the next
# one with it: else text like "\"\"\"... is rescanned from every quote to its
# end (1 s for 10 KB on a 2-core Xeon). The end of the block is the token "".
_TOKEN = re.compile(
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
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}
_CLOSERS = {"[": "]", "(": ")", "{": "}"}
_BOOLS = {"true": True, "false": False}


class _Parser:
    """Recursive descent over the tokens of one block."""

    def __init__(self, block: str):
        self.tokens = _TOKEN.findall(block)
        self.pos = 0
        self.depth = 0

    def _next(self) -> str:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _expect(self, token: str):
        if self._next() != token:
            raise _SyntaxError(f"expected {token!r} at token {self.pos - 1}")

    def _identifier(self) -> str:
        token = self._next()
        # Identifier tokens are exactly the ASCII Python identifiers.
        if not (token.isidentifier() and token.isascii()):
            raise _SyntaxError(f"expected an identifier at token {self.pos - 1}")
        return token

    def _items(self, close: str):
        """Yield once per item of a comma-separated run closed by *close*."""
        while self.tokens[self.pos] != close:
            yield
            if self.tokens[self.pos] != close:
                self._expect(",")
        self.pos += 1

    def _dict_key(self) -> str:
        key = self._value()
        if not isinstance(key, str):
            raise _SyntaxError(f"dict key must be a string at token {self.pos - 1}")
        self._expect(":")
        return key

    def _container(self, opener: str) -> Value:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _SyntaxError(f"nesting deeper than {MAX_NESTING}")
        items = self._items(_CLOSERS[opener])
        if opener == "{":
            value = {self._dict_key(): self._value() for _ in items}
        else:
            value = [self._value() for _ in items]
        self.depth -= 1
        return tuple(value) if opener == "(" else value

    def _value(self) -> Value:
        token = self._next()
        head = token[:1]
        if head in _CLOSERS:
            return self._container(head)
        # A lone quote, minus or dot is a character that started no token.
        if len(token) > 1 and head in "'\"":
            body = token[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), body)
            return body
        if head.isdecimal() or (len(token) > 1 and head in "-."):
            try:
                number = float(token) if any(c in token for c in ".eE") else int(token)
            except ValueError:  # an integer past Python's digit limit
                raise _SyntaxError(f"integer too long at token {self.pos - 1}") from None
            if isinstance(number, float) and not math.isfinite(number):
                raise _SyntaxError(f"number out of range at token {self.pos - 1}")
            return number
        if token.lower() in _BOOLS:
            return _BOOLS[token.lower()]
        raise _SyntaxError(f"expected a literal at token {self.pos - 1}")

    def request(self) -> ApiRequest:
        name = self._identifier()
        self._expect("(")
        args: dict[str, Value] = {}
        for _ in self._items(")"):
            key = self._identifier()
            self._expect("=")
            value = self._value()
            if key in args:
                raise _SyntaxError(f"duplicate argument key {key!r}")
            args[key] = value
        self._expect("")
        return ApiRequest(name, tuple(args.items()))


def parse_request(block: str) -> ParseOutcome:
    """Parse one request block. Total: never raises on bad input."""
    try:
        return ParseOutcome(_Parser(block).request())
    except _SyntaxError:
        return ParseOutcome(None)


def parse_llm_output(text: str) -> ParseOutcome:
    """Extract and parse the request block of raw LLM output."""
    block = extract_request_block(text)
    if block is None:
        return ParseOutcome(None)
    return parse_request(block)


_STRING_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
)


def serialize_value(value: Value) -> str:
    """Render one literal in canonical form (double quotes, lowercase bools)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value.translate(_STRING_ESCAPES)}"'
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(serialize_value(v) for v in value) + "]"
    if isinstance(value, tuple):
        inner = ", ".join(serialize_value(v) for v in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if isinstance(value, dict):
        items = ", ".join(
            f'"{k.translate(_STRING_ESCAPES)}": {serialize_value(v)}' for k, v in value.items()
        )
        return "{" + items + "}"
    raise TypeError(f"unsupported value type: {type(value).__name__}")


def serialize_request(req: ApiRequest) -> str:
    """Canonical one-line form; ``parse_request`` inverts it exactly."""
    args = ", ".join(f"{k}={serialize_value(v)}" for k, v in req.args)
    return f"{req.name}({args})"


def infer_value_type(value: Value) -> ValueType:
    """Map a parsed literal to its documentation type."""
    if isinstance(value, bool):
        return ValueType.BOOL
    if isinstance(value, str):
        return ValueType.STRING
    if isinstance(value, int):
        return ValueType.INT
    if isinstance(value, float):
        return ValueType.FLOAT
    if isinstance(value, list):
        return ValueType.LIST
    if isinstance(value, tuple):
        return ValueType.TUPLE
    if isinstance(value, dict):
        return ValueType.DICT
    raise TypeError(f"unsupported value type: {type(value).__name__}")


def type_matches(value: Value, expected: ValueType) -> bool:
    """Check a literal against a documented parameter type.

    An integer satisfies a float parameter; a tuple never satisfies a list
    parameter, nor a list a tuple one.
    """
    actual = infer_value_type(value)
    return actual == expected or (
        actual == ValueType.INT and expected == ValueType.FLOAT
    )


def values_equal(a: Value, b: Value) -> bool:
    """Type-aware equality: bools never equal ints, and an int equals a
    float when both convert to the same float (so 3 == 3.0). An int past
    the float range equals no float, as parsed floats are finite."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if type(a) is type(b):
            return a == b
        try:
            return float(a) == float(b)
        except OverflowError:
            return False
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            values_equal(v, b[k]) for k, v in a.items()
        )
    return a == b
