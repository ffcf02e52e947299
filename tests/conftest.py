"""Make ``src/`` importable for the command-line tests that start
``python -m ordbubble`` in a subprocess, as ``pythonpath`` in
``pyproject.toml`` does for the suite itself, so a plain
``python -m pytest`` works on a checkout without an install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
