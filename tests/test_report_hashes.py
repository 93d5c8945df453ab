"""Stripped reports are pinned by sha256.

`tests/data/corpus_report_sha256.json` holds, per bound ("default" or
an integer), the sha256 of `report_to_json(strip_timings(...))` for each
bundled spec.  `tests/data/action_report_sha256.json` holds the same
hash for a few larger actions outside the corpus, each with its bound.
`tests/data/random_report_sha256.json` holds it for each action of a
seeded random draw, at one bound.  A change that alters any report byte
fails here.  To re-record after an
intended change of output, run

    PYTHONPATH=src python tests/test_report_hashes.py
"""

import hashlib
import json
import random
from importlib import resources
from pathlib import Path

from invforms.action import action_from_dict, load_action
from invforms.report import report_to_json, run_analysis, strip_timings

DATA = Path(__file__).parent / "data"
PINNED = DATA / "corpus_report_sha256.json"
PINNED_ACTIONS = DATA / "action_report_sha256.json"
PINNED_RANDOM = DATA / "random_report_sha256.json"
BOUNDS = ("default", 6)
# (action, bound): Z3 on n=5 by [1,1,2,2,0] is the benchmark's n5_z3
# input; Z3 on n=5 by [1,1,1,2,2] at 12 has the most wedges per
# generator point among these (6,852 at 1,573 points), so its blocks
# lift the longest vector lists; the next two have certificate bounds
# 280 and 480, far above the bound asked for; the next two are torus actions at
# their certificate bounds, where every verdict is certified; Z3 x Z3 on
# n=6 at 14 has a coordinate-symmetry group of order 12, the most orbit
# sharing among these
ACTIONS = (
    ({"n": 5, "finite_orders": [3], "weight_matrix": [[1, 1, 2, 2, 0]]}, 7),
    ({"n": 5, "finite_orders": [3], "weight_matrix": [[1, 1, 1, 2, 2]]}, 8),
    ({"n": 5, "finite_orders": [3], "weight_matrix": [[1, 1, 1, 2, 2]]}, 12),
    (
        {
            "n": 5,
            "torus_rank": 2,
            "finite_orders": [5],
            "weight_matrix": [
                [-3, 1, -1, 3, -1], [2, -3, 1, -1, -3], [4, 2, 2, 2, 3]
            ],
        },
        12,
    ),
    (
        {
            "n": 4,
            "torus_rank": 2,
            "finite_orders": [4, 5],
            "weight_matrix": [
                [-1, -1, 3, -1], [3, -1, -2, 1], [3, -2, -3, -3], [-2, 0, -3, 3]
            ],
        },
        12,
    ),
    ({"n": 5, "torus_rank": 1, "weight_matrix": [[1, 2, 3, -1, -4]]}, 24),
    (
        {"n": 6, "torus_rank": 1, "weight_matrix": [[1, 1, 1, -1, -1, -1]]},
        18,
    ),
    (
        {
            "n": 6,
            "finite_orders": [3, 3],
            "weight_matrix": [[1, 1, 1, 2, 2, 2], [1, 2, 0, 1, 2, 0]],
        },
        14,
    ),
)

# the random draw: n in 2..5, torus rank 0..2, up to two finite factors
# of order 2..6, weights in [-3, 3]; n stays at most 5 so that the 300
# analyses take a few seconds
RANDOM_SEED = 0
RANDOM_COUNT = 300
RANDOM_BOUND = 12


def random_actions(count=RANDOM_COUNT, seed=RANDOM_SEED):
    """Action documents drawn from `random.Random(seed)`; the same list in
    every process, since nothing depends on `hash()` or set order."""
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        n = rng.randint(2, 5)
        rank = rng.randint(0, 2)
        orders = [rng.randint(2, 6) for _ in range(rng.randint(0, 2))]
        rows = [
            [rng.randint(-3, 3) for _ in range(n)]
            for _ in range(rank + len(orders))
        ]
        docs.append(
            {
                "n": n,
                "torus_rank": rank,
                "finite_orders": orders,
                "weight_matrix": rows,
            }
        )
    return docs


def report_hash(act, bound):
    text = report_to_json(strip_timings(run_analysis(act, bound)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_hashes(corpus_dir, bound):
    return {
        path.stem: report_hash(
            load_action(path), None if bound == "default" else bound
        )
        for path in sorted(corpus_dir.glob("*.json"))
    }


def action_hashes():
    return [
        {
            "action": doc,
            "bound": bound,
            "sha256": report_hash(action_from_dict(doc), bound),
        }
        for doc, bound in ACTIONS
    ]


def random_hashes():
    return {
        "seed": RANDOM_SEED,
        "bound": RANDOM_BOUND,
        "sha256": [
            report_hash(action_from_dict(doc), RANDOM_BOUND)
            for doc in random_actions()
        ],
    }


def test_corpus_reports_match_pinned_hashes(corpus_dir):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(str(b) for b in BOUNDS)
    for bound in BOUNDS:
        want = pinned[str(bound)]
        assert len(want) == 35
        assert report_hashes(corpus_dir, bound) == want, bound


def test_larger_action_reports_match_pinned_hashes():
    pinned = json.loads(PINNED_ACTIONS.read_text(encoding="utf-8"))
    assert len(pinned) == len(ACTIONS)
    assert action_hashes() == pinned


def test_random_action_reports_match_pinned_hashes():
    pinned = json.loads(PINNED_RANDOM.read_text(encoding="utf-8"))
    assert len(pinned["sha256"]) == RANDOM_COUNT
    assert random_hashes() == pinned


if __name__ == "__main__":
    corpus = Path(resources.files("invforms").joinpath("corpus"))
    table = {str(b): report_hashes(corpus, b) for b in BOUNDS}
    PINNED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    PINNED_ACTIONS.write_text(json.dumps(action_hashes(), indent=2) + "\n")
    PINNED_RANDOM.write_text(json.dumps(random_hashes(), indent=2) + "\n")
