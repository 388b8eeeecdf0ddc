"""Budgets on the shape of the package source."""

import ast
from pathlib import Path

import catspec

#: defaulted parameters over every function of the package; new options go
#: in the config, not in signatures
DEFAULTED_PARAMETERS = 2
#: field defaults over every dataclass of the package; config.DEFAULT_CONFIG
#: is the only copy of the default configuration
DATACLASS_FIELD_DEFAULTS = 0
#: lines over every module of the package; growth is a deliberate edit here
SOURCE_LINES = 3509


def _trees():
    return [ast.parse(path.read_text()) for path in Path(catspec.__file__).parent.glob("*.py")]


def _is_dataclass(node):
    return isinstance(node, ast.ClassDef) and any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list)


def test_defaulted_parameter_budget():
    count = 0
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    assert count <= DEFAULTED_PARAMETERS


def test_dataclass_field_default_budget():
    count = sum(isinstance(field, ast.AnnAssign) and field.value is not None
                for tree in _trees() for node in ast.walk(tree) if _is_dataclass(node)
                for field in node.body)
    assert count <= DATACLASS_FIELD_DEFAULTS


def test_source_line_budget():
    lines = sum(len(path.read_text().splitlines())
                for path in Path(catspec.__file__).parent.glob("*.py"))
    assert lines <= SOURCE_LINES
