"""The traced benchmark names engine functions; each must still resolve.

The benchmark also reads three engine names outside the tracer's
lists: its worker stamps `linalg.BACKEND` on every run, its self-test
checks that the tracer restores the `euler.piece_keys` binding, and the
tracer counts the wedges a pullback image lists through
`PullbackImage.wedge_generators`.  One traced analysis runs here too:
the tracer's hooks read the engine's call arguments, so a changed call
would crash every traced run.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for module, attr, _ in tracer.SPANS + tracer.COUNTS:
        assert callable(tracer._lookup(module, attr)), (module, attr)


def test_names_read_outside_the_traced_lists_resolve():
    import invforms.euler
    import invforms.linalg
    import invforms.pieces
    from invforms.action import make_action
    from invforms.pullback import pullback_image

    assert isinstance(invforms.linalg.BACKEND, str)
    assert invforms.euler.piece_keys is invforms.pieces.piece_keys
    # the tracer's own hook reads the wedges a pullback image lists
    tr = load_tracer().Tracer()
    act = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
    tr._after_pullback_image((), pullback_image(act, 1, 6))
    assert tr.wedges_kept == 3


def test_a_traced_analysis_runs_and_unwinds():
    """The benchmark's n5_z3 workload under the tracer: Z3 on n=5 by
    [1,1,2,2,0] at bound 7."""
    from invforms.action import make_action
    from invforms.report import run_analysis

    tracer = load_tracer()
    act = make_action(5, finite_orders=[3], weight_matrix=[[1, 1, 2, 2, 0]])
    with tracer.Tracer() as tr:
        run_analysis(act, max_degree=7)
        got = tr.take()
    assert got["wedges_kept"] == 213
    assert got["calls"]["linalg.insert"] == 332
    wrapped = [
        (name, attr)
        for name, mod in sys.modules.items()
        if name == "invforms" or name.startswith("invforms.")
        for attr, value in vars(mod).items()
        if hasattr(value, "__wrapped__")
    ]
    assert wrapped == []
    for module, attr, _ in tracer.SPANS + tracer.COUNTS:
        assert not hasattr(tracer._lookup(module, attr), "__wrapped__"), attr
