"""Workload inputs, their seeded variants, and the checks on every output.

Seed 0 gives the default inputs.  Another seed permutes the coordinates
of each action at random (one permutation per action, drawn from the
seed and the action's name).  A permuted action has the same n, torus
rank, finite orders, bound, degree range and multiset of weights, and
is isomorphic to the default one, so a pass costs about the same on
every seed while the engine sees different input.  Isomorphism also
fixes what the output must be: every part of a report that does not
name coordinates, and every homology table, must equal the one
recorded from the default inputs.

Each call is checked three ways:
- properties that hold for any input: no exception, the smoothness
  routes agree, and a positively graded action has no contraction
  homology outside total degree 0;
- digests of the output against `references.json`, recorded from the
  default inputs by `record_references.py`;
- on inputs identical to the default (always on seed 0), the sha256 of
  the full report with timings stripped, and for `z2_11` a byte
  comparison with `tests/data/a1.golden.json`.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS_DIR = ROOT / "src" / "invforms" / "corpus"
SPECS_DIR = HERE / "specs"
GOLDEN_A1 = ROOT / "tests" / "data" / "a1.golden.json"
REFERENCES = HERE / "references.json"

N5_BOUND = 7
# (spec, torus indices, total degrees, positively graded)
HOMOLOGY = [
    ("t1_1234", (0,), range(8), True),
    ("t2_rank2", (0, 1), range(6), False),
]

# Passes a run always makes: the fewest repeats each call's fastest
# time is taken over.
MIN_PASSES = {"corpus": 6, "n5_z3": 3, "homology": 4}

NAMES = tuple(MIN_PASSES)


@dataclass(frozen=True)
class Call:
    """One public API call of a pass and how its output is judged."""

    key: str  # reference key
    run: Callable[[], object]
    fingerprint: Callable[[object], dict]  # digests compared with the reference
    problems: Callable[[object], list]  # violations that need no reference


def load(name, seed):
    """Load, validate and permute the workload's specs; return its calls."""
    if name == "corpus":
        return [
            _analysis_call(f"corpus/{path.stem}", path, seed, None)
            for path in sorted(CORPUS_DIR.glob("*.json"))
            if not path.name.endswith(".golden.json")
        ]
    if name == "n5_z3":
        return [_analysis_call("n5_z3", SPECS_DIR / "n5_z3.json", seed, N5_BOUND)]
    if name == "homology":
        return [
            call
            for spec, indices, degrees, positive in HOMOLOGY
            for call in _homology_calls(spec, indices, degrees, positive, seed)
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def references():
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def check(call, out, refs):
    """Problems with one output, as a list of strings (empty when correct)."""
    problems = list(call.problems(out))
    ref = refs.get(call.key)
    if ref is None:
        return problems + [f"no reference recorded for {call.key}"]
    for kind, digest in call.fingerprint(out).items():
        if ref.get(kind) != digest:
            problems.append(f"{kind} digest differs from the reference")
    return problems


# -- seeded inputs -----------------------------------------------------------


def permutation(seed, name, n):
    """Coordinate order for one action: identity on seed 0."""
    perm = list(range(n))
    if seed:
        random.Random(f"{seed}/{name}").shuffle(perm)
    return perm


def _load_permuted(path, seed):
    from invforms.action import load_action, make_action

    base = load_action(path)
    perm = permutation(seed, path.stem, base.n)
    action = make_action(
        base.n,
        base.torus_rank,
        base.finite_orders,
        [[row[p] for p in perm] for row in base.weight_matrix],
    )
    return base, action, perm


# -- analyses ----------------------------------------------------------------


def _analysis_call(key, path, seed, bound):
    base, action, perm = _load_permuted(path, seed)
    same = action == base
    golden = GOLDEN_A1.read_bytes() if same and key == "corpus/z2_11" else None
    return Call(
        key,
        partial(_analyze, action, bound),
        partial(_report_fingerprint, perm=perm, same=same),
        partial(_report_problems, golden=golden),
    )


def _analyze(action, bound):
    import invforms.report

    # looked up on each call so that a tracer's wrapper is used
    return invforms.report.run_analysis(action, max_degree=bound)


def _stripped_json(report):
    from invforms.report import report_to_json, strip_timings

    return report_to_json(strip_timings(report))


def _report_fingerprint(report, perm, same):
    out = {"invariant": _digest(_invariant_view(report, perm))}
    if same:
        out["stripped"] = hashlib.sha256(
            _stripped_json(report).encode("utf-8")
        ).hexdigest()
    return out


def _report_problems(report, golden):
    problems = []
    if not report["smoothness"]["agreement"]:
        problems.append("smoothness routes disagree")
    if golden is not None and _stripped_json(report).encode("utf-8") != golden:
        problems.append("report differs from tests/data/a1.golden.json")
    return problems


def _invariant_view(report, perm):
    """The report minus everything that names coordinates.

    Hilbert-basis exponents are mapped back to the default coordinates
    and sorted; a witness class is reduced to whether one exists.
    """
    from invforms.report import strip_timings

    view = strip_timings(report)
    del view["action"]
    basis = []
    for g in report["hilbert"]["basis"]:
        orig = [0] * len(perm)
        for i, p in enumerate(perm):
            orig[p] = g[i]
        basis.append(orig)
    view["hilbert"] = dict(report["hilbert"], basis=sorted(basis))
    view["surjectivity"] = {
        k: dict(v, witness=v["witness"] is not None)
        for k, v in report["surjectivity"].items()
    }
    return view


# -- contraction homology ------------------------------------------------------


def _homology_calls(spec, indices, degrees, positive, seed):
    _, action, _ = _load_permuted(SPECS_DIR / f"{spec}.json", seed)
    return [
        Call(
            f"homology/{spec}/t{j}/d{d}",
            partial(_homology, action, d, j, positive),
            _homology_fingerprint,
            partial(_homology_problems, positive=positive, degree=d),
        )
        for j in indices
        for d in degrees
    ]


def _homology(action, degree, torus_index, positive):
    import invforms.euler

    return invforms.euler.homology_all_weights(
        action,
        degree,
        torus_index=torus_index,
        require_positive_grading=positive,
    )


def _homology_fingerprint(res):
    return {"table": _digest([list(res.dims), list(res.homology)])}


def _homology_problems(res, positive, degree):
    if positive and degree > 0 and any(res.homology):
        return [f"nonzero homology {list(res.homology)} in degree {degree}"]
    return []


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
