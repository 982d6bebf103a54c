"""The benchmark's span tracer names the lwcf functions it wraps.

``perfbench/tracer.py`` skips a target that the package no longer has, so a
rename or a merge in ``lwcf`` would silently drop that layer's spans from
the benchmark's per-layer figures.  This test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists_in_lwcf():
    tracer = load_tracer()
    missing = [f"{mod}.{name}" for mod, name, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(f"lwcf.{mod}"),
                                       name, None))]
    assert tracer.TARGETS and missing == []
    assert tracer.TRIAL_SPAN in {f"{m}.{n}" for m, n, _ in tracer.TARGETS}
