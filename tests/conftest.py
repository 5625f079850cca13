"""Let the subprocess tests' `python -m qbayes` import this checkout's src/.

pyproject's `pythonpath` setting puts src/ on sys.path of the pytest
process only; child interpreters read PYTHONPATH instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
