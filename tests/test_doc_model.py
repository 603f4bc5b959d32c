import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autofeedback import (
    ValueType,
    load_document,
    lookup_api,
    normalize_name,
)
from autofeedback.errors import SchemaError


def test_load_preserves_order_and_count(doc, raw_doc):
    assert len(doc) == 12
    assert list(doc.api_names) == [a["name"] for a in raw_doc["apis"]]


def test_load_from_json_text():
    text = json.dumps(
        {
            "apis": [
                {"name": "a", "description": "first", "parameters": [], "exceptions": []},
                {"name": "b", "description": "second", "parameters": [], "exceptions": []},
            ]
        }
    )
    loaded = load_document(text)
    assert len(loaded) == 2
    assert loaded.api_names == ("a", "b")


def test_unknown_value_type_rejected():
    text = json.dumps(
        {
            "apis": [
                {
                    "name": "a",
                    "description": "",
                    "parameters": [
                        {"name": "when", "type": "datetime", "description": "", "required": True}
                    ],
                    "exceptions": [],
                }
            ]
        }
    )
    with pytest.raises(SchemaError) as exc_info:
        load_document(text)
    assert "datetime" in str(exc_info.value)
    assert "apis[0].parameters[0].type" in str(exc_info.value)


def test_duplicate_api_name_rejected():
    entry = {"name": "getUser", "description": "", "parameters": [], "exceptions": []}
    text = json.dumps({"apis": [entry, dict(entry)]})
    with pytest.raises(SchemaError) as exc_info:
        load_document(text)
    assert "getUser" in str(exc_info.value)


def test_missing_field_names_path():
    text = json.dumps({"apis": [{"description": "no name"}]})
    with pytest.raises(SchemaError) as exc_info:
        load_document(text)
    assert "apis[0]" in str(exc_info.value)


def test_lookup_exact_match(doc):
    assert lookup_api(doc, "userLogin").name == "userLogin"
    assert lookup_api(doc, "user_login") is None
    assert lookup_api(doc, "nope") is None


def test_lookup_empty_doc():
    empty = load_document(json.dumps({"apis": []}))
    assert lookup_api(empty, "anything") is None


@pytest.mark.parametrize(
    "name,expected",
    [
        ("user_login", "userlogin"),
        ("userLogin", "userlogin"),
        ("get_v2_Data!", "getvdata"),
    ],
)
def test_normalize_name(name, expected):
    assert normalize_name(name) == expected


@given(st.text(max_size=60))
def test_normalize_idempotent_and_lowercase_letters(name):
    once = normalize_name(name)
    assert normalize_name(once) == once
    assert all("a" <= c <= "z" for c in once)


def test_value_type_enum_is_closed():
    assert {v.value for v in ValueType} == {
        "string", "int", "float", "list", "tuple", "dict", "bool",
    }
