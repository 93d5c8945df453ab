"""Self-test of the benchmark: counts repeat, and the default seed passes.

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py

Two traced passes of every workload take about ten seconds.  The file
is not named test_*.py, so the engine's own test run does not collect
it; pytest collects it when it is named on the command line.
"""

import sys

import pytest

import invforms.euler
import invforms.pieces
import workloads
from tracer import LAYER_METRICS, Tracer
from worker import measure


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_and_outputs_match(name):
    calls = workloads.load(name, seed=0)
    with Tracer() as tracer:
        res = measure(calls, workloads.references(), 0, 2, tracer)

    assert res["failures"] == []  # fail_ratio 0 on the default seed
    first, second = (
        {metric: get(layer) for metric, unit, get in LAYER_METRICS if unit != "s"}
        for layer in res["layers"]
    )
    assert first == second
    assert first["linalg.insert_calls"] > 0
    # the tracer restores every binding it replaced, including those of
    # modules it imported itself
    assert invforms.euler.piece_keys is invforms.pieces.piece_keys
    left = [
        f"{mod_name}.{key}"
        for mod_name, mod in list(sys.modules.items())
        if mod_name.startswith("invforms")
        for key, value in vars(mod).items()
        if hasattr(value, "__wrapped__")
    ]
    assert left == []
