"""The traced benchmark run wraps blindbeam functions by name."""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_layer_functions_exist():
    # perfbench/child.py getattr()s every listed name in a traced run, so a
    # renamed or deleted function would crash every `--trace 1` run
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [f"{module}.{name}" for module, name, _, _ in child.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(f"blindbeam.{module}"),
                                       name, None))]
    assert child.LAYER_FUNCTIONS
    assert missing == []
