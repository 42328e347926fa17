"""Make the benchmark's modules and this checkout's ``repro`` importable."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402

harness.import_repro()
