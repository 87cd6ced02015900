"""Child processes started by the tests (``python -m cheaptalk ...``)
import the package from this checkout, installed or not; the test
process itself finds it through ``pythonpath`` in pyproject.toml."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
