"""Immutable model of API documentation plus loader and name normalization.

The documentation file format is JSON:

    {"apis": [{"name": str, "description": str,
               "parameters": [{"name": str, "type": str,
                               "description": str, "required": bool}],
               "exceptions": [{"code": str, "message": str}]}]}

where ``type`` is one of ``string int float list tuple dict bool``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

from .errors import SchemaError

__all__ = [
    "ValueType",
    "ParamSpec",
    "ApiSpec",
    "ApiDocument",
    "load_document",
    "lookup_api",
    "normalize_name",
]


class ValueType(str, Enum):
    """The seven parameter types a documented API may declare."""

    STRING = "string"
    INT = "int"
    FLOAT = "float"
    LIST = "list"
    TUPLE = "tuple"
    DICT = "dict"
    BOOL = "bool"


_VALUE_TYPES = {v.value: v for v in ValueType}


@dataclass(frozen=True)
class ParamSpec:
    """One documented parameter of an API."""

    name: str
    value_type: ValueType
    description: str = ""
    required: bool = True

    def __post_init__(self):
        if not self.name:
            raise ValueError("parameter name must be non-empty")


@dataclass(frozen=True)
class ApiSpec:
    """One documented API: name, description, parameters, exception specs."""

    name: str
    description: str = ""
    params: tuple[ParamSpec, ...] = ()
    exceptions: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("API name must be non-empty")
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate parameter name in API {self.name!r}")

    def param(self, name: str) -> ParamSpec | None:
        for p in self.params:
            if p.name == name:
                return p
        return None

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)


@dataclass(frozen=True)
class ApiDocument:
    """An ordered, immutable collection of API specs.

    Source order is preserved; several detection rules break ties by it.
    The name indices below are built on first use and kept; each lists
    its entries in doc order, so the first entry is the one a scan of the
    doc would find first.
    """

    apis: tuple[ApiSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        names = [a.name for a in self.apis]
        if len(names) != len(set(names)):
            raise ValueError("duplicate API name in document")

    def __len__(self) -> int:
        return len(self.apis)

    @cached_property
    def api_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.apis)

    @cached_property
    def by_name(self) -> dict[str, ApiSpec]:
        """API name -> spec."""
        return {a.name: a for a in self.apis}

    @cached_property
    def api_by_normalized_name(self) -> dict[str, str]:
        """Normalized API name -> the first API name with that form."""
        index: dict[str, str] = {}
        for a in self.apis:
            index.setdefault(normalize_name(a.name), a.name)
        return index

    @cached_property
    def params_by_normalized_name(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """Normalized parameter name -> ``(owner API, parameter name)`` for
        every parameter with that form."""
        index: dict[str, list[tuple[str, str]]] = {}
        for a in self.apis:
            for p in a.params:
                index.setdefault(normalize_name(p.name), []).append((a.name, p.name))
        return {key: tuple(pairs) for key, pairs in index.items()}


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"missing field {key!r}", path)
    return obj[key]


def _load_param(raw: object, path: str) -> ParamSpec:
    if not isinstance(raw, dict):
        raise SchemaError("parameter must be an object", path)
    name = _require(raw, "name", path)
    if not isinstance(name, str) or not name:
        raise SchemaError("parameter name must be a non-empty string", f"{path}.name")
    type_str = _require(raw, "type", path)
    if type_str not in _VALUE_TYPES:
        raise SchemaError(f"unknown value type {type_str!r}", f"{path}.type")
    description = raw.get("description", "")
    required = raw.get("required", True)
    if not isinstance(required, bool):
        raise SchemaError("required must be a boolean", f"{path}.required")
    return ParamSpec(name, _VALUE_TYPES[type_str], str(description), required)


def _load_api(raw: object, path: str) -> ApiSpec:
    if not isinstance(raw, dict):
        raise SchemaError("API entry must be an object", path)
    name = _require(raw, "name", path)
    if not isinstance(name, str) or not name:
        raise SchemaError("API name must be a non-empty string", f"{path}.name")
    params = raw.get("parameters", [])
    if not isinstance(params, list):
        raise SchemaError("parameters must be a list", f"{path}.parameters")
    specs = tuple(
        _load_param(p, f"{path}.parameters[{i}]") for i, p in enumerate(params)
    )
    names = [p.name for p in specs]
    for i, pname in enumerate(names):
        if pname in names[:i]:
            raise SchemaError(
                f"duplicate parameter name {pname!r}", f"{path}.parameters[{i}]"
            )
    exceptions = raw.get("exceptions", [])
    if not isinstance(exceptions, list):
        raise SchemaError("exceptions must be a list", f"{path}.exceptions")
    excs = []
    for i, e in enumerate(exceptions):
        if not isinstance(e, dict) or "code" not in e or "message" not in e:
            raise SchemaError(
                "exception must have code and message", f"{path}.exceptions[{i}]"
            )
        excs.append((str(e["code"]), str(e["message"])))
    return ApiSpec(name, str(raw.get("description", "")), specs, tuple(excs))


def load_document(source: str | Path) -> ApiDocument:
    """Load an :class:`ApiDocument` from a file path or raw JSON text.

    A ``Path`` is always read as a file. A string is treated as JSON text
    when it starts with ``{``, otherwise as a path.

    Raises :class:`SchemaError` on any deviation from the documented schema,
    naming the offending element, and on a file that is not UTF-8 JSON;
    ``OSError`` when the file cannot be read.
    """
    is_text = isinstance(source, str) and source.lstrip().startswith("{")
    try:
        raw = json.loads(source if is_text else Path(source).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, bad JSON, too many digits, too deep
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")
    apis_raw = _require(raw, "apis", "")
    if not isinstance(apis_raw, list):
        raise SchemaError("apis must be a list", "apis")
    apis = []
    seen: set[str] = set()
    for i, entry in enumerate(apis_raw):
        api = _load_api(entry, f"apis[{i}]")
        if api.name in seen:
            raise SchemaError(f"duplicate API name {api.name!r}", f"apis[{i}].name")
        seen.add(api.name)
        apis.append(api)
    return ApiDocument(tuple(apis))


def lookup_api(doc: ApiDocument, name: str) -> ApiSpec | None:
    """Exact, case-sensitive lookup of an API by name, through the doc's
    ``by_name`` index (API names are unique, so there is no tie)."""
    return doc.by_name.get(name)


_NON_LETTER = re.compile(r"[^a-zA-Z]")


def normalize_name(name: str) -> str:
    """Collapse naming-style differences: lowercase, strip non-letters.

    ``user_login``, ``userLogin`` and ``USER-LOGIN`` all normalize to
    ``userlogin``; digits and punctuation are removed.
    """
    return _NON_LETTER.sub("", name).lower()
