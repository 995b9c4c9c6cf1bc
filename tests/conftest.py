"""Shared fixtures for the test suite; the oracles live in `oracles.py`."""

import pytest

from discdimer import fixtures as fx
from discdimer.model import DimerModel


@pytest.fixture(scope="session")
def triangle() -> DimerModel:
    return fx.triangle()


@pytest.fixture(scope="session")
def gr37() -> DimerModel:
    return fx.gr37()


@pytest.fixture(scope="session")
def inconsistent() -> DimerModel:
    return fx.inconsistent()


@pytest.fixture(scope="session")
def u13() -> DimerModel:
    return fx.build_uniform(1, 3)


@pytest.fixture(scope="session")
def u24() -> DimerModel:
    return fx.build_uniform(2, 4)


@pytest.fixture(scope="session")
def u25() -> DimerModel:
    return fx.build_uniform(2, 5)


@pytest.fixture(scope="session")
def u36() -> DimerModel:
    return fx.build_uniform(3, 6)
