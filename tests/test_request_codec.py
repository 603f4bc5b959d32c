import gc
import logging
import random
import string
import time
from enum import Enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autofeedback import (
    ApiRequest,
    ParseOutcome,
    ValueType,
    extract_request_block,
    infer_value_type,
    parse_request,
    serialize_request,
)
from autofeedback.request_codec import MAX_NESTING, serialize_value, type_matches, values_equal

from oracles import oracle_extract_request_block, oracle_parse_request


class ParseFailure(Enum):
    """Why an edge case must not parse. ``parse_request`` reports only that
    it fails; the label keeps the cause in the case's name."""

    BAD_SYNTAX = "bad_syntax"
    DUPLICATE_KEY = "duplicate_key"


def random_value(rng: random.Random, depth: int):
    kinds = ["str", "int", "float", "bool"]
    if depth > 0:
        kinds += ["list", "tuple", "dict"]
    kind = rng.choice(kinds)
    if kind == "str":
        alphabet = string.ascii_letters + string.digits + " _-.,:;!?'\"\\\n\t()[]{}"
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
    if kind == "int":
        return rng.randint(-10**9, 10**9)
    if kind == "float":
        return rng.choice(
            [rng.uniform(-1e6, 1e6), rng.uniform(-1, 1) * 10 ** rng.randint(-12, 12)]
        )
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "list":
        return [random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    if kind == "tuple":
        return tuple(random_value(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    return {
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 6))): random_value(rng, depth - 1)
        for _ in range(rng.randint(0, 3))
    }


def random_request(rng: random.Random) -> ApiRequest:
    name = rng.choice(string.ascii_letters + "_") + "".join(
        rng.choice(string.ascii_letters + string.digits + "_")
        for _ in range(rng.randint(0, 10))
    )
    n_args = rng.randint(0, 5)
    keys: list[str] = []
    while len(keys) < n_args:
        key = rng.choice(string.ascii_letters) + "".join(
            rng.choice(string.ascii_lowercase + "_") for _ in range(rng.randint(0, 8))
        )
        if key not in keys:
            keys.append(key)
    args = tuple((k, random_value(rng, depth=3)) for k in keys)
    return ApiRequest(name, args)


def test_roundtrip_1000_random_requests():
    rng = random.Random(1234)
    for _ in range(1000):
        req = random_request(rng)
        outcome = parse_request(serialize_request(req))
        assert outcome.ok, serialize_request(req)
        assert outcome.request == req


@pytest.mark.parametrize(
    "text,name,n_args",
    [
        ('route_planning(origin="39.9,116.4", dest="31.2,121.5")', "route_planning", 2),
        ("list_medicines(name='aspirin')", "list_medicines", 1),
    ],
)
def test_parse_examples(text, name, n_args):
    outcome = parse_request(text)
    assert outcome.ok
    assert outcome.request.name == name
    assert len(outcome.request.args) == n_args


def test_parse_single_quotes_normalize_to_double():
    outcome = parse_request("list_medicines(name='aspirin')")
    assert dict(outcome.request.args)["name"] == "aspirin"
    assert serialize_request(outcome.request) == 'list_medicines(name="aspirin")'


def test_duplicate_key_rejected():
    assert parse_request("getUser(id=5, id=6)") == ParseOutcome(None)
    with pytest.raises(ValueError, match="duplicate argument key"):
        ApiRequest("getUser", (("id", 5), ("id", 6)))


@pytest.mark.parametrize(
    "text",
    [
        "getUser(id=5",          # unbalanced
        "getUser 5",             # no call
        "getUser(5)",            # positional argument
        "getUser(id=)",          # missing value
        "getUser(id=5) extra",   # trailing content
        "",                      # empty
        "getUser(id==5)",
        "f(x=",                  # truncated before a value
        "f(x=[",
        "f(x={",
        "f(x={'a': [",
    ],
)
def test_bad_syntax_rejected(text):
    assert parse_request(text) == ParseOutcome(None)


@pytest.mark.parametrize(
    "text, expected",
    [
        # A duplicate key fails the parse as soon as its value parses.
        ("f(a=1, a=2 $", ParseFailure.DUPLICATE_KEY),
        ("f(a=1, a=2, b=", ParseFailure.DUPLICATE_KEY),
        ("f(a=1, a=[", ParseFailure.BAD_SYNTAX),
        ('f(a=[1, 2,], b={"k": 1,},)', (("a", [1, 2]), ("b", {"k": 1}))),
        ("f(t=(1))", (("t", (1,)),)),
        (r'f(s="\d\'\n\t\r")', (("s", "d'\n\t\r"),)),
        ("f\t(\n a =\xa01 ,\x1cb=2 )  ", (("a", 1), ("b", 2))),
        ("f(a=tRuE, true=False)", (("a", True), ("true", False))),
        ('f(a={"k": 1, "k": 2})', (("a", {"k": 2}),)),
        ("f(a=1., b=.5, c=-2E-1, d=\u0663)", (("a", 1.0), ("b", 0.5), ("c", -0.2), ("d", 3))),
        *[
            (f"f(a={value})", ParseFailure.BAD_SYNTAX)
            for value in ["truex", "1e", "- 1", "--1", "1.2.3", "{1: 2}", '"abc', '"abc\\', "\xb2"]
        ],
    ],
)
def test_parse_edge_behaviour(text, expected):
    outcome = parse_request(text)
    if isinstance(expected, ParseFailure):
        assert outcome == ParseOutcome(None)
    else:
        # repr tells 1 from 1.0 and True from 1.
        assert outcome.ok and repr(outcome.request.args) == repr(expected)


@pytest.mark.parametrize("unit", ['\\"', '"\\', "'x", " "])
def test_parse_time_grows_linearly(unit):
    # Were a backslash outside a string a token of its own, text like
    # "\"\"\"... would be rescanned from every quote to its end: 1 s for
    # 10 KB on a 2-core Xeon.
    def best_time(size):
        text = 'f(a="' + unit * (size // len(unit))
        times = []
        for _ in range(3):
            started = time.process_time()
            parse_request(text)
            times.append(time.process_time() - started)
        return min(times)

    small, large = best_time(8_000), best_time(16_000)
    assert large < 3.0 * small + 0.002, (small, large)


def test_parse_literals():
    outcome = parse_request(
        'f(a=1, b=-2.5, c=TRUE, d=false, e=[1, "x"], g=(1,), h={"k": [true]}, i=1e-09)'
    )
    assert outcome.ok
    req = outcome.request
    assert dict(req.args)["a"] == 1
    assert dict(req.args)["b"] == -2.5
    assert dict(req.args)["c"] is True
    assert dict(req.args)["d"] is False
    assert dict(req.args)["e"] == [1, "x"]
    assert dict(req.args)["g"] == (1,)
    assert dict(req.args)["h"] == {"k": [True]}
    assert dict(req.args)["i"] == 1e-09


@pytest.mark.parametrize(
    "req,expected",
    [
        (ApiRequest("f", (("a", 1),)), "f(a=1)"),
        (ApiRequest("f", ()), "f()"),
        (ApiRequest("g", (("s", "x"),)), 'g(s="x")'),
        (ApiRequest("g", (("b", True), ("c", False))), "g(b=true, c=false)"),
        (ApiRequest("g", (("t", (1, 2)),)), "g(t=(1, 2))"),
        (ApiRequest("g", (("t", ()),)), "g(t=())"),
    ],
)
def test_serialize_canonical(req, expected):
    assert serialize_request(req) == expected


def test_serialize_escapes_and_reparses():
    req = ApiRequest("f", (("s", 'a "quote"\nand\\slash'),))
    text = serialize_request(req)
    assert "\n" not in text
    outcome = parse_request(text)
    assert outcome.ok and outcome.request == req


def test_extract_with_markers():
    assert (
        extract_request_block("Sure! <<API>> getUser(id=5) <</API>>")
        == "getUser(id=5)"
    )


def test_extract_none_when_absent():
    assert extract_request_block("I cannot call any API.") is None


def test_extract_fallback_balanced_parens():
    assert extract_request_block("call getUser(id=5) now") == "getUser(id=5)"
    assert (
        extract_request_block('thought (not a call) then g(a="x(y)") done')
        == 'g(a="x(y)")'
    )


def test_extract_takes_first_of_many_blocks():
    text = "<<API>> f(a=1) <</API>> and <<API>> g(b=2) <</API>>"
    assert extract_request_block(text) == "f(a=1)"


def test_extra_blocks_are_logged_only_at_debug_level(caplog):
    text = "<<API>> f(a=1) <</API>> and <<API>> g(b=2) <</API>>"
    with caplog.at_level(logging.INFO, logger="autofeedback.request_codec"):
        assert extract_request_block(text) == "f(a=1)"
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="autofeedback.request_codec"):
        assert extract_request_block(text) == "f(a=1)"
        assert extract_request_block("<<API>> f(a=1) <</API>> and <<API>>") == "f(a=1)"
    assert [r.getMessage() for r in caplog.records] == [
        "multiple request blocks found; keeping the first"
    ]


@given(st.text(max_size=200))
def test_parse_is_total(text):
    outcome = parse_request(text)
    assert isinstance(outcome, ParseOutcome)


def test_deep_nesting_is_bad_syntax():
    text = "f(x=" + "[" * 5000 + "]" * 5000 + ")"
    assert not parse_request(text).ok


def test_nesting_limit_is_exact():
    at_limit = "f(x=" + "[" * MAX_NESTING + "]" * MAX_NESTING + ")"
    past_limit = "f(x=" + "[" * (MAX_NESTING + 1) + "]" * (MAX_NESTING + 1) + ")"
    assert parse_request(at_limit).ok
    assert not parse_request(past_limit).ok


# Digit runs on both sides of Python's integer-string limit (4,300 digits)
# and exponents up to e999, past the largest finite float (about 1.8e308).
_LONG_NUMBER = st.one_of(
    st.integers(min_value=4295, max_value=4305).map("9".__mul__),
    st.integers(min_value=300, max_value=999).map("1e{}".format),
)
_REQUEST_SHAPED = st.lists(
    st.one_of(st.text(alphabet="f(x=[]{}(),:'\"1.- ", max_size=10), _LONG_NUMBER),
    max_size=8,
).map("".join)


@example("9" * 5000 + ")")
@given(_REQUEST_SHAPED)
def test_parse_is_total_on_request_shaped_text(tail):
    outcome = parse_request("f(x=" + tail)
    assert isinstance(outcome, ParseOutcome)


def _quoted(text: str, quote: str) -> str:
    return quote + text.replace("\\", "\\\\").replace(quote, "\\" + quote) + quote


_NUMBER_TEXT = st.one_of(
    st.from_regex(r"-?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d{1,3})?", fullmatch=True),
    _LONG_NUMBER,
)
_STRING_TEXT = st.builds(_quoted, st.text(max_size=8), st.sampled_from("'\""))
_SPACE = st.sampled_from(["", " ", "\n\t"])


def _joined(open_, close, items):
    return st.builds(
        lambda parts, space: open_ + ("," + space).join(parts) + close,
        st.lists(items, max_size=3),
        _SPACE,
    )


def _containers(inner, key):
    return st.one_of(
        _joined("[", "]", inner),
        _joined("(", ")", inner),
        _joined("{", "}", st.builds(lambda k, v: f"{k}: {v}", key, inner)),
    )


_VALUE_TEXT = st.recursive(
    st.one_of(_NUMBER_TEXT, _STRING_TEXT, st.sampled_from(["true", "False", "TRUE"])),
    lambda inner: _containers(inner, _STRING_TEXT),
    max_leaves=8,
)
_REQUEST_TEXT = st.builds(
    lambda name, keys, values, space: f"{name}({space}"
    + ", ".join(f"{k}{space}={v}" for k, v in zip(keys, values))
    + ")",
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
    st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True), max_size=4, unique=True),
    st.lists(_VALUE_TEXT, min_size=4, max_size=4),
    _SPACE,
)


@example("f(a=1e999)")
@example("f(a=-1e999, b=[1.5e400])")
@given(_REQUEST_TEXT)
def test_serialize_inverts_every_parse(text):
    outcome = parse_request(text)
    if outcome.ok:
        again = parse_request(serialize_request(outcome.request))
        assert again.ok and repr(again.request) == repr(outcome.request)


def _nested_text(depth: int, opener: str, tail: str) -> str:
    closer = {"[": "]", "(": ")", "{": "}"}[opener]
    if opener == "{":
        return "f(x=" + '{"k": ' * depth + "1" + "}" * depth + tail
    return "f(x=" + opener * depth + "1" + closer * depth + tail


# Text built from the characters whose token kind is read from the first
# one: quotes, backslashes, brackets, a lone sign or point, a non-ASCII
# decimal digit (\u0663), a digit that is not decimal (\u00b2), a non-ASCII
# letter (\u00e9) and U+0085, which str.isspace accepts.
_FRAGMENTS = (
    "f(", "a=", ", ", ")", "(", "[", "]", "{", "}", ":", "=", '"', "'", "\\",
    '\\"', "\\n", "x", "true", "1", "-", ".", "1e", "\u0663", "\u00b2",
    "\u00e9", "\u0085", " ", "\n",
)
_ODD_NAMES = ("f", "_g9", "\u00e9", "1", "\\a", "TRUE", "'a'")
_ODD_SCALARS = st.sampled_from((
    '"s"', "'s'", '"a\\"b"', "'\\n\\t\\q'", '"', "'", "1", "-2", "-", ".",
    ".5", "-.5", ".5e3", "1e", "1.e5", "1e999", "\u0663", "\u0663.5", "\u00b2",
    "true", "TRUE", "False", "\u00e9", "\\x", "\u0085", "",
))


def _broken_request(name, args, at, fragment):
    """A request of *args*, with *fragment* put in at index *at*."""
    text = f"{name}({', '.join(f'{k}={v}' for k, v in args)})"
    return text[:at] + fragment + text[at:]


_ODD_REQUEST_TEXT = st.builds(
    _broken_request,
    st.sampled_from(_ODD_NAMES),
    st.lists(
        st.tuples(
            st.sampled_from(_ODD_NAMES),
            st.recursive(_ODD_SCALARS, lambda inner: _containers(inner, _ODD_SCALARS), max_leaves=4),
        ),
        max_size=3,
    ),
    st.integers(min_value=0, max_value=40),
    st.sampled_from(("",) + _FRAGMENTS),
)
_PARSE_TEXT = st.one_of(
    _REQUEST_TEXT,
    _ODD_REQUEST_TEXT,
    st.lists(st.sampled_from(_FRAGMENTS), max_size=14).map("".join),
    _REQUEST_SHAPED.map("f(x=".__add__),
    st.builds(
        _nested_text,
        st.integers(min_value=MAX_NESTING - 2, max_value=MAX_NESTING + 2),
        st.sampled_from("[({"),
        st.sampled_from([")", ") ", ")x", ", y=2)", ""]),
    ),
)


@given(_PARSE_TEXT)
@example("f(a=1) \n\t ")   # trailing whitespace gives two end tokens
@example("")
@example("f(")
@example("f()x")
@example("f(a=1,,)")
@example("{[1]: 2}")
@example("f(a={[1]: 2})")
@example(r"""f(s="\"\n\t\r\d", d={'\'k': '\\'})""")
# Tokens whose kind is read from their first character.
@example('f(a=")')
@example("f(a=')")
@example("f(a=-)")
@example("f(a=.)")
@example("f(a=-.5)")
@example("f(a=.5e3)")
@example("f(a=1e)")
@example("f(a=1.e5)")
@example("f(a=\u0663)")   # ARABIC-INDIC DIGIT THREE, a decimal digit
@example("f(a=\u00b2)")   # SUPERSCRIPT TWO, a digit but not a decimal one
@example("f(\u00e9=1)")
@example("f(a=\u00e9)")
@example(r"f(\k=1)")
@example(r"f(a=\v)")
@example("f(1=2)")
@example("f(a=TRUE, b=False)")
def test_parse_equals_the_untyped_token_parser(text):
    assert repr(parse_request(text)) == repr(oracle_parse_request(text))


@pytest.mark.parametrize("text", ["f(a=[1 2])", "f(a=(1 2))", 'f(a={"k": 1 "j": 2})'])
def test_a_container_item_needs_a_comma_or_the_closer_after_it(text):
    assert parse_request(text) == ParseOutcome(None)
    assert repr(parse_request(text)) == repr(oracle_parse_request(text))


@given(
    st.integers(min_value=0, max_value=3000),
    st.sampled_from("[({"),
    st.text(max_size=20),
)
def test_parse_is_total_at_any_depth(depth, opener, tail):
    outcome = parse_request("f(x=" + opener * depth + tail)
    assert isinstance(outcome, ParseOutcome)


@given(
    st.text(alphabet=string.ascii_letters + string.digits + " .,!?_()=\"'", max_size=80),
    st.text(alphabet=string.ascii_letters + string.digits + " .,!?_", max_size=80),
)
def test_extract_never_returns_markers(prefix, suffix):
    text = f"{prefix} <<API>> getUser(id=5) <</API>> {suffix}"
    block = extract_request_block(text)
    assert block is not None
    assert "<<API>>" not in block and "<</API>>" not in block


_EXTRACT_TOKEN = st.sampled_from(
    ["f", "(", ")", "'", '"', "\\", "x", " ", "<<API>>", "<</API>>"]
)


def _nested(inner):
    run = st.lists(inner, max_size=4).map("".join)
    return st.one_of(
        run,
        run.map(lambda s: f"f({s})"),
        run.map(lambda s: f"'{s}'"),
        run.map(lambda s: f'"{s}"'),
    )


# Flat token runs, and runs nested into calls and strings, which close far
# more often than flat ones do.
_EXTRACT_TEXT = st.one_of(
    st.lists(_EXTRACT_TOKEN, max_size=60).map("".join),
    st.recursive(_EXTRACT_TOKEN, _nested, max_leaves=30),
)


@settings(max_examples=500, deadline=None)
@given(_EXTRACT_TEXT)
# Scans that start at different points and disagree on quote state: the
# leftmost call that closes wins, not the first to close, and scans that
# reach the same state keep their own depths and starts.
@example("ff(f(')\\f(')')")
@example("(\"f('f(\\''))")
@example("\\f((x'\"\"f('\\'')")
@example("f(g('h(')')")
# A backslash pair outside a string acts as its second character.
@example("f(\\)")
# Names found from their parens: leading digits are not part of a name, a
# paren with no name before it starts no call, and the name characters are
# ASCII only.
@example("9abc(x=1)")
@example("a9(x=1)")
@example("x 12_f(a=1)")
@example("12(x=1) f(y=2)")
@example("((f(a=1)")
@example("é(x=1) f(y=2)")
@example("I will (as asked) call it: f(a=1) (done)")
@example("(a) (b(c) d(e=1)")
def test_extract_equals_the_rescanning_extractor(text):
    assert extract_request_block(text) == oracle_extract_request_block(text)


@pytest.mark.parametrize("unit", ["f(", "f('", "'f(", "f(\\'", "x(\"'"])
def test_extract_time_grows_linearly(unit):
    # The rescanning extractor took 0.15 s at 2 KB and 2.5 s at 8 KB on a
    # reply of "f(" repeated: four times the time per doubling.
    # The two sizes are timed back to back in each repeat, with the
    # collector off, so that neither a collection nor a slow spell of the
    # host lands on one size alone.
    texts = [unit * (size // len(unit)) for size in (8_000, 16_000)]
    times = [[], []]
    gc.disable()
    try:
        for _ in range(3):
            for text, spent in zip(texts, times):
                started = time.process_time()
                extract_request_block(text)
                spent.append(time.process_time() - started)
    finally:
        gc.enable()
    small, large = min(times[0]), min(times[1])
    assert large < 3.0 * small + 0.002, (small, large)


def test_infer_value_type():
    assert infer_value_type("x") is ValueType.STRING
    assert infer_value_type(3) is ValueType.INT
    assert infer_value_type(3.5) is ValueType.FLOAT
    assert infer_value_type(True) is ValueType.BOOL
    assert infer_value_type([1]) is ValueType.LIST
    assert infer_value_type((1,)) is ValueType.TUPLE
    assert infer_value_type({"a": 1}) is ValueType.DICT


@pytest.mark.parametrize("convert", [serialize_value, infer_value_type])
def test_a_value_of_no_literal_type_is_a_type_error(convert):
    with pytest.raises(TypeError, match="unsupported value type: set"):
        convert({1})


def test_type_matches_widening():
    assert type_matches(3, ValueType.FLOAT)
    assert not type_matches("three", ValueType.INT)
    assert type_matches([1], ValueType.LIST)
    assert not type_matches(3.5, ValueType.INT)
    assert not type_matches(True, ValueType.INT)
    assert not type_matches(1, ValueType.BOOL)
    assert not type_matches((1,), ValueType.LIST)


def test_values_equal_type_aware():
    assert values_equal(3, 3.0)
    assert not values_equal(True, 1)
    assert not values_equal([True], [1])
    assert values_equal({"a": [1, 2.0]}, {"a": [1, 2.0]})
    assert not values_equal((1,), [1])


def test_values_equal_compares_mixed_numbers_as_floats():
    # 2**53 + 1 rounds to 2**53 as a float, so the pair is equal, unlike
    # under Python's exact int/float comparison.
    assert values_equal(2**53 + 1, float(2**53))
    assert values_equal([2**53 + 1], [float(2**53)])
    assert not values_equal(2**53 + 2, float(2**53))


_PAST_FLOAT_RANGE = st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024))
_NESTING = st.lists(st.sampled_from([lambda v: [v], lambda v: {"k": v}]), max_size=3)


@given(_PAST_FLOAT_RANGE, st.floats(allow_nan=False, allow_infinity=False), _NESTING)
def test_values_equal_int_past_float_range_equals_no_float(n, x, nesting):
    # float(n) overflows; parsed floats are finite, so none can equal n.
    for wrap in nesting:
        n, x = wrap(n), wrap(x)
    assert not values_equal(n, x)
    assert not values_equal(x, n)
