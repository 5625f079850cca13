"""Shared test setup.

Let the subprocess tests' `python -m qbayes` import this checkout's
src/: pyproject's `pythonpath` setting puts src/ on sys.path of the
pytest process only; child interpreters read PYTHONPATH instead.

Every test must leave numpy's floating-point error state as it found
it, so that a check that silences a warning for one call cannot leak
that into the next.
"""

import os
from pathlib import Path

import numpy as np
import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(autouse=True)
def _no_leaked_error_state():
    before = np.geterr()
    yield
    assert np.geterr() == before, "numpy error state leaked"
