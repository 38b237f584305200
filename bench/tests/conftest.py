"""Run with ``python -m pytest bench/tests`` from the repo root (tier-1's
``testpaths`` does not collect this directory)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
