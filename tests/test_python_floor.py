"""The package's syntax stays within the Python floor of ``pyproject.toml``
(``requires-python = ">=3.10"``) when the suite runs on a newer Python.

Two checks: every module parses with the 3.10 grammar, and no compiled
module-level pattern uses regex syntax added in 3.11 (possessive
quantifiers, atomic groups). Neither can catch a difference in the
standard library's API, such as a function or an argument added after
3.10; only a run on 3.10 itself shows those.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

try:  # Python 3.11 and later
    from re import _constants as sre_constants
    from re import _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_constants
    import sre_parse

FLOOR = (3, 10)
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "autofeedback"
MODULES = sorted(PACKAGE.glob("*.py"))

# Opcodes of regex syntax that Python 3.10 does not compile; 3.10 has neither.
_NEWER_OPCODES = {
    getattr(sre_constants, name)
    for name in ("POSSESSIVE_REPEAT", "ATOMIC_GROUP")
    if hasattr(sre_constants, name)
}


def _subpatterns(value):
    """Every parsed subpattern held in an opcode's argument."""
    if isinstance(value, sre_parse.SubPattern):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _subpatterns(item)


def _opcodes(subpattern):
    for op, arg in subpattern.data:
        yield op
        for inner in _subpatterns(arg):
            yield from _opcodes(inner)


def newer_regex_syntax(pattern: re.Pattern) -> set[str]:
    """Names of the opcodes in *pattern* that need a Python past the floor."""
    parsed = sre_parse.parse(pattern.pattern, pattern.flags)
    return {str(op) for op in _opcodes(parsed) if op in _NEWER_OPCODES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_parses_with_the_floor_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_pattern_uses_regex_syntax_past_the_floor(path):
    module = importlib.import_module(f"autofeedback.{path.stem}")
    patterns = {
        name: value for name, value in vars(module).items() if isinstance(value, re.Pattern)
    }
    assert {name: newer_regex_syntax(p) for name, p in patterns.items()} == {
        name: set() for name in patterns
    }


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 cannot compile the syntax")
@pytest.mark.parametrize(
    "pattern, opcode",
    [(r"\d++", "POSSESSIVE_REPEAT"), (r"[a-z]*+x", "POSSESSIVE_REPEAT"),
     (r"(?>ab|a)c", "ATOMIC_GROUP"), (r"(x|(?:y(?>z)))", "ATOMIC_GROUP")],
)
def test_the_check_finds_syntax_past_the_floor(pattern, opcode):
    assert newer_regex_syntax(re.compile(pattern)) == {opcode}


def test_the_check_passes_floor_syntax():
    assert newer_regex_syntax(re.compile(r"(?:a+|b*?)(?=c)[+*]\+{2}")) == set()
