r"""Extract and parse ``APINAME(key1=value1, ...)`` blocks from LLM output.

Requests carry keyword arguments only. ``_TOKEN`` splits a block into
tokens, and a token's kind follows from its first character: a quote
opens a string, an ASCII letter or ``_`` an identifier, a decimal digit,
``-`` or ``.`` a number, and an opening bracket a container. A quote,
``-`` or ``.`` that opens no string or number is a one-character token,
as is any other character, and none of them is a value. The end of the
block is the token ``""``. The grammar, over those tokens::

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
import string
from dataclasses import dataclass
from typing import Iterator, Union

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
    """A parsed API call: name plus ordered keyword arguments.

    The argument values are the request's own lists and dicts. Whoever
    holds the request, an executor's handler included, must not mutate
    them: the request is serialized again for the judge and the logs.
    """

    name: str
    args: tuple[tuple[str, Value], ...] = ()

    def __post_init__(self):
        if len(dict(self.args)) != len(self.args):
            raise ValueError("duplicate argument key")


@dataclass(frozen=True)
class ParseOutcome:
    """Result of parsing: the request, or ``None`` when the output holds no
    request that parses."""

    request: ApiRequest | None

    @property
    def ok(self) -> bool:
        return self.request is not None


# Fallback extraction wants a call-shaped candidate: an ASCII identifier
# directly against the open paren. (The parser itself tolerates whitespace
# between tokens.)
_NAME_CHARS = string.ascii_letters + string.digits + "_"


def _call_starts(text: str) -> Iterator[tuple[int, int]]:
    """Yield ``(start, paren)`` for each ``name(`` of *text*, in order.

    Candidates are found from their parens: the name of one is the run of
    name characters right before its paren, less any leading digits. No
    name holds a paren, so each run lies between two parens and every
    character is looked at once.
    """
    after = 0
    paren = text.find("(")
    while paren != -1:
        run = text[after:paren]
        name = run[len(run.rstrip(_NAME_CHARS)) :].lstrip(string.digits)
        if name:
            yield paren - len(name), paren
        after = paren + 1
        paren = text.find("(", after)


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
    calls = _call_starts(text)
    # The next candidate to start, and its paren.
    start, next_open = next(calls, (-1, -1))
    if start == -1:
        return None
    first = start
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
                    track[2][track[1] - 1] = start
                    break
            else:
                tracks.append([None, 1, {0: start}])
            start, next_open = next(calls, (-1, -1))
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
            if logger.isEnabledFor(logging.DEBUG):
                rest = llm_output[close + len(CLOSE_MARKER) :]
                if OPEN_MARKER in rest and CLOSE_MARKER in rest:
                    logger.debug("multiple request blocks found; keeping the first")
            return llm_output[open_idx + len(OPEN_MARKER) : close].strip()
    return _first_balanced_call(llm_output)


class _SyntaxError(Exception):
    pass


# One token: optional whitespace, then one capture group, so that
# ``findall`` gives plain strings: punctuation, a quoted string, an
# identifier, a number, a backslash with the next character, any other
# character, or "" at the end of the block. ``_value`` reads each token's
# kind from its first character. ``sre`` passes over an alternative on the
# current character only if the alternative opens with a literal or a set,
# so each does: a number is three alternatives, one per first character.
# Punctuation, the commonest token, comes first; ``\S`` and ``\Z``, which
# match anywhere, come last. Giving a character back never lets an
# alternative match where it failed; possessive quantifiers, which would
# not try, save a little more but need Python 3.11 (BENCH_25.json). A
# backslash takes the next character with it: else text like "\"\"\"...
# is rescanned from every quote to its end.
_TOKEN = re.compile(
    r"""\s*(
        [(),=\[\]{}:]
      | "[^"\\]*(?:\\.[^"\\]*)*"
      | '[^'\\]*(?:\\.[^'\\]*)*'
      | [A-Za-z_][A-Za-z0-9_]*
      | \d+(?:\.\d*)?(?:[eE][+-]?\d+)?
      | \.\d+(?:[eE][+-]?\d+)?
      | -(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?
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
# First characters of a token's kind; a decimal digit also opens a number.
_QUOTES = frozenset("'\"")
_SIGN_OR_POINT = frozenset("-.")
_NAME_START = frozenset(string.ascii_letters + "_")


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


def _value(tokens: list[str], pos: int, depth: int) -> tuple[Value, int]:
    """The value whose first token is ``tokens[pos]``, inside *depth*
    containers, and the position of the token after it."""
    token = tokens[pos]
    pos += 1
    head = token[:1]
    if head in _QUOTES and len(token) > 1:
        body = token[1:-1]
        return (_ESCAPE.sub(_unescape, body) if "\\" in body else body), pos
    if head.isdecimal() or (head in _SIGN_OR_POINT and len(token) > 1):
        try:
            is_float = "." in token or "e" in token or "E" in token
            value = float(token) if is_float else int(token)
        except ValueError:  # an integer past Python's digit limit
            raise _SyntaxError from None
        if is_float and not math.isfinite(value):
            raise _SyntaxError
        return value, pos
    if head in _NAME_START:
        value = _BOOLS.get(token.lower())
        if value is None:
            raise _SyntaxError
        return value, pos
    close = _CLOSERS.get(token)
    if close is None or depth >= MAX_NESTING:
        raise _SyntaxError
    items: list | dict = {} if token == "{" else []
    while tokens[pos] != close:
        if token == "{":
            key, pos = _value(tokens, pos, depth + 1)
            if not isinstance(key, str) or tokens[pos] != ":":
                raise _SyntaxError
            items[key], pos = _value(tokens, pos + 1, depth + 1)
        else:
            value, pos = _value(tokens, pos, depth + 1)
            items.append(value)
        if tokens[pos] != close:
            if tokens[pos] != ",":
                raise _SyntaxError
            pos += 1
    return (tuple(items) if token == "(" else items), pos + 1


def parse_request(block: str) -> ParseOutcome:
    """Parse one request block. Total: never raises on bad input."""
    tokens = _TOKEN.findall(block)
    name = tokens[0]
    # The end token follows every other, so a name is never the last token.
    if name[:1] not in _NAME_START or tokens[1] != "(":
        return ParseOutcome(None)
    args: dict[str, Value] = {}
    pos = 2
    try:
        while tokens[pos] != ")":
            key = tokens[pos]
            if key[:1] not in _NAME_START or key in args or tokens[pos + 1] != "=":
                return ParseOutcome(None)
            args[key], pos = _value(tokens, pos + 2, 0)
            if tokens[pos] != ")":
                if tokens[pos] != ",":
                    return ParseOutcome(None)
                pos += 1
    except _SyntaxError:
        return ParseOutcome(None)
    # Text that ends in whitespace has two end tokens, so count none.
    if tokens[pos + 1] != "":
        return ParseOutcome(None)
    return ParseOutcome(ApiRequest(name, tuple(args.items())))


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
