from __future__ import annotations

from pathlib import Path

import pytest

from knowhow import Model, parse_model

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    # Criterion 3, the exhaustive planner cross-validation, takes minutes;
    # ``pytest -m "not slow"`` runs everything else.
    for item in items:
        if item.name == "test_criterion_3_oracle_equivalence":
            item.add_marker(pytest.mark.slow)


def load_model(name: str) -> Model:
    return parse_model((FIXTURES / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def ex1() -> Model:
    return load_model("ex1.lts")


@pytest.fixture(scope="session")
def ex2_left() -> Model:
    return load_model("ex2-left.lts")


@pytest.fixture(scope="session")
def ex2_right() -> Model:
    return load_model("ex2-right.lts")
