"""Child processes (``python -m orbifold_hurwitz``, the demos) import the
package from this checkout's ``src``, as the tests do through
``pythonpath`` in ``pyproject.toml``, so a bare ``python -m pytest`` runs
the suite without an install."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
