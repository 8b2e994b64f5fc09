import itertools
import json
import sys
from pathlib import Path

import pytest

from bibkit.model import ALL_SLOTS

FIXTURES = Path(__file__).parent / "fixtures"

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str):
    return json.loads((FIXTURES / name).read_text("utf-8"))


def rows_then_fail(rows, k: int):
    """The first ``k`` of ``rows``, then the error a disk that fills mid-file raises."""
    yield from itertools.islice(rows, k)
    raise OSError("No space left on device")


def slot_labels(vector) -> dict:
    """A label vector as a dict from each slot to its label."""
    return dict(zip(ALL_SLOTS, vector))
