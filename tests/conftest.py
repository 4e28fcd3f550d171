from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from helpers import element_battery, non_normalized_battery

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def oeis_fixture_path(tmp_path_factory) -> Path:
    """A copy of ``data/oeis_stripped.txt``: ``identify`` writes its sidecar
    next to the dump, which must not land in the checkout."""
    copy = tmp_path_factory.mktemp("data") / "oeis_stripped.txt"
    shutil.copyfile(DATA_DIR / "oeis_stripped.txt", copy)
    return copy


@pytest.fixture(scope="session")
def battery():
    """50 random normalized polynomial elements, order high enough for the
    deepest production-matrix checks (n=6 at size 8)."""
    return element_battery(count=50, order=14, seed=20260809)


@pytest.fixture(scope="session")
def non_normalized():
    """12 random polynomial elements with rational g(0), f'(0) != 1."""
    return non_normalized_battery(count=12, order=14, seed=20261017)
