"""Fixtures shared by the test modules, built once per module."""

import pytest

from catspec.escape import EscapeFunction, OrderParams
from catspec.model import default_flow


@pytest.fixture(scope="module")
def flow():
    return default_flow(0.2)


@pytest.fixture(scope="module")
def flow_const():
    return default_flow(0.0)


@pytest.fixture(scope="module")
def escape(flow):
    return EscapeFunction(flow, OrderParams())
