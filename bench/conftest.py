"""Test plumbing for the benchmark's own tests: import momogp from src/."""

import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
