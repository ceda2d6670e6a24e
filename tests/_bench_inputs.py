"""``bench/inputs.py`` loaded by path, for the tests that reuse the
benchmark's inputs (the bench directory is not a package)."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
)
BENCH_INPUTS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(BENCH_INPUTS)
