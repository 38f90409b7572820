"""Every function the benchmark's tracer wraps must exist under the name
it is listed by; a rename or deletion would otherwise surface only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TRACED)


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    missing = []
    for name in names:
        module, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"abckit.{module}"),
                                func, None)):
            missing.append(name)
    assert missing == []
