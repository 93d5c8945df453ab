"""The traced benchmark names engine functions; each must still resolve.

The benchmark also reads three engine names outside the tracer's
lists: its worker stamps `linalg.BACKEND` on every run, its self-test
checks that the tracer restores the `euler.piece_keys` binding, and the
tracer counts kept wedges through `PullbackImage.wedge_generators`.
"""

import importlib.util
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
    # the tracer's own hook reads the kept wedges of a pullback image
    tr = load_tracer().Tracer()
    act = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
    tr._after_pullback_image((), pullback_image(act, 1, 6))
    assert tr.wedges_kept == 3
