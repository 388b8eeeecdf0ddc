"""Fixtures shared by the test modules; every input comes from the parsed
default configuration, the package's only source of default values."""

import pytest

from catspec.config import parse_config
from catspec.escape import EscapeFunction


@pytest.fixture(scope="module")
def defaults():
    return parse_config("")


@pytest.fixture(scope="module")
def flow(defaults):
    return defaults.flow()


@pytest.fixture(scope="module")
def flow_const():
    return parse_config("[model]\nc_cos =\n").flow()


@pytest.fixture(scope="module")
def escape(flow, defaults):
    return EscapeFunction(flow, defaults.escape)
