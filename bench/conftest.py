"""Self-tests import p4filter from this checkout's src/, as run.py does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
