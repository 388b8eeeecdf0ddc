"""Budgets on the shape of the package source."""

import ast
from pathlib import Path

import catspec

#: defaulted parameters over every function of the package; new options go
#: in the config, not in signatures
DEFAULTED_PARAMETERS = 21
#: lines over every module of the package; growth is a deliberate edit here
SOURCE_LINES = 3458


def test_defaulted_parameter_budget():
    count = 0
    for path in Path(catspec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    assert count <= DEFAULTED_PARAMETERS


def test_source_line_budget():
    lines = sum(len(path.read_text().splitlines())
                for path in Path(catspec.__file__).parent.glob("*.py"))
    assert lines <= SOURCE_LINES
