"""The traced benchmark names engine functions; each must still resolve."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.SPANS + tracer.COUNTS:
        assert callable(tracer._lookup(module, attr)), (module, attr)
