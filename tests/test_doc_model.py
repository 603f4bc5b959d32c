import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autofeedback import (
    ApiDocument,
    ApiSpec,
    ParamSpec,
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
    # A list or an object is unhashable: it must not reach the type table.
    for value_type in ("datetime", ["string"], {}):
        text = json.dumps(
            {
                "apis": [
                    {
                        "name": "a",
                        "description": "",
                        "parameters": [
                            {"name": "when", "type": value_type, "description": "", "required": True}
                        ],
                        "exceptions": [],
                    }
                ]
            }
        )
        with pytest.raises(SchemaError) as exc_info:
            load_document(text)
        assert repr(value_type) in str(exc_info.value)
        assert "apis[0].parameters[0].type" in str(exc_info.value)


@pytest.mark.parametrize("value", [None, ["text"], 3])
@pytest.mark.parametrize(
    "place, path",
    [
        ("api", "apis[0].description"),
        ("param", "apis[0].parameters[0].description"),
        ("exception", "apis[0].exceptions[0].message"),
    ],
)
def test_non_string_text_rejected(place, path, value):
    # Stored as its str(), a null would reach the prompt and the TF-IDF
    # vocabulary as the text "None".
    api = {
        "name": "a",
        "description": "d",
        "parameters": [{"name": "p", "type": "int", "description": "pd"}],
        "exceptions": [{"code": "401", "message": "m"}],
    }
    target = {"api": api, "param": api["parameters"][0], "exception": api["exceptions"][0]}
    target[place]["message" if place == "exception" else "description"] = value
    with pytest.raises(SchemaError) as exc_info:
        load_document(json.dumps({"apis": [api]}))
    assert path in str(exc_info.value)


def test_missing_description_and_numeric_code_load():
    api = {
        "name": "a",
        "parameters": [{"name": "p", "type": "int"}],
        "exceptions": [
            {"code": 401, "message": "Invalid credentials."},
            {"code": 2.5, "message": "m"},
        ],
    }
    [loaded] = load_document(json.dumps({"apis": [api]})).apis
    assert loaded.description == ""
    assert loaded.params[0].description == ""
    assert loaded.exceptions == (("401", "Invalid credentials."), ("2.5", "m"))


def _api(**fields):
    return {"apis": [{"name": "a", **fields}]}


def _param(**fields):
    return _api(parameters=[{"name": "p", "type": "int", **fields}])


@pytest.mark.parametrize(
    "raw, path",
    [
        ([], ""),
        ({"apis": {}}, "apis"),
        ({"apis": ["a"]}, "apis[0]"),
        ({"apis": [{"name": ""}]}, "apis[0].name"),
        ({"apis": [{"name": 3}]}, "apis[0].name"),
        (_api(parameters={}), "apis[0].parameters"),
        (_api(parameters=["p"]), "apis[0].parameters[0]"),
        (_param(name=""), "apis[0].parameters[0].name"),
        (_param(name=None), "apis[0].parameters[0].name"),
        (_param(required="yes"), "apis[0].parameters[0].required"),
        (
            _api(parameters=[{"name": "p", "type": "int"}, {"name": "p", "type": "string"}]),
            "apis[0].parameters[1]",
        ),
        (_api(exceptions={}), "apis[0].exceptions"),
        (_api(exceptions=[{"message": "m"}]), "apis[0].exceptions[0]"),
        (_api(exceptions=[{"code": "401"}]), "apis[0].exceptions[0]"),
        (_api(exceptions=["401"]), "apis[0].exceptions[0]"),
        # Stored as its str(), a null code reached the prompt as "Error None: m".
        *(
            (_api(exceptions=[{"code": code, "message": "m"}]), "apis[0].exceptions[0].code")
            for code in (None, True, False, {"x": 1}, [1], float("nan"))
        ),
        # JSON text as it stands: json.loads reads 1e400 as infinity.
        (
            '{"apis": [{"name": "a", "exceptions": [{"code": 1e400, "message": "m"}]}]}',
            "apis[0].exceptions[0].code",
        ),
    ],
)
def test_schema_error_names_its_path(tmp_path, raw, path):
    # Read from a file, since a string that is not an object reads as a path.
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    with pytest.raises(SchemaError) as exc_info:
        load_document(doc_file)
    assert exc_info.value.path == path


@pytest.mark.parametrize(
    "build",
    [
        lambda: ParamSpec("", ValueType.INT),
        lambda: ApiSpec(""),
        lambda: ApiSpec("a", params=(ParamSpec("p", ValueType.INT),) * 2),
        lambda: ApiDocument((ApiSpec("a"), ApiSpec("a"))),
    ],
    ids=["empty-param-name", "empty-api-name", "duplicate-param", "duplicate-api"],
)
def test_direct_construction_rejects_what_the_loader_rejects(build):
    with pytest.raises(ValueError):
        build()


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
