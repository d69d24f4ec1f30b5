"""Make ``src/`` importable for the test suites and the processes they start.

``pythonpath = ["src"]`` in pyproject.toml puts ``src/`` on this process's
``sys.path``; tests that launch ``python -m repro.cli ...`` in a fresh
interpreter need it in the environment as well, so a plain ``pytest`` on
a fresh checkout behaves like ``PYTHONPATH=src pytest``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
