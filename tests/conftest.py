from __future__ import annotations

from pathlib import Path

import pytest

from helpers import element_battery, non_normalized_battery

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def oeis_fixture_path() -> Path:
    return DATA_DIR / "oeis_stripped.txt"


@pytest.fixture(scope="session")
def battery():
    """50 random normalized polynomial elements, order high enough for the
    deepest production-matrix checks (n=6 at size 8)."""
    return element_battery(count=50, order=14, seed=20260809)


@pytest.fixture(scope="session")
def non_normalized():
    """12 random polynomial elements with rational g(0), f'(0) != 1."""
    return non_normalized_battery(count=12, order=14, seed=20261017)
