"""The benchmark's traced run wraps library functions by name.

perfbench/spans.py lists each (module, attribute) it wraps and the group
classes whose ``sample`` it times; a library name missing from either list
would make every traced run fail at install time.  This checks the lists
against the library without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_function_resolves():
    spans = _spans()
    missing = [f"{module}.{attr}" for _, module, attr in spans.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_every_traced_group_class_defines_sample():
    spans = _spans()
    adversary = importlib.import_module("inexact.adversary")
    for name in spans.GROUP_CLASSES:
        assert "sample" in vars(getattr(adversary, name)), name
