"""Command-line front end: analyze / corpus / euler / canonical.

Exit codes: 0 completed with verdicts, 1 input error, 2 completed with
inconclusive flags or stopped by an engine error, 3 golden-file
mismatch (corpus), 4 theorem-equivalence violation on a certified
instance (corpus).  Commands raise their input errors as
`PreconditionError`, and `main` alone maps an engine error to its exit
code: 1 for a `PreconditionError`, 2 for any other `EngineError`.  A
spec that cannot be loaded exits 1.  `corpus` analyzes its specs in
one process, in sorted order, and stops at the first spec that fails,
naming its path, with the same codes; it prints nothing on stdout
until every spec has been analyzed.
"""

import argparse
import json
import sys
from pathlib import Path

from invforms.action import Weight, load_action
from invforms.canonical import canonical_comparison
from invforms.errors import EngineError, PreconditionError, ValidationError
from invforms.euler import euler_homology, homology_all_weights
from invforms.report import report_to_json, run_analysis, strip_timings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="invforms",
        description="Exact analysis of diagonal group actions on affine space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline on one action spec")
    p.add_argument("spec", help="path to an action JSON document")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument(
        "--form-degree",
        default="all",
        help="one form degree k, or 'all' for 1..dim Y",
    )
    p.add_argument("--json", dest="json_out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("corpus", help="run a directory of action specs")
    p.add_argument("corpus_dir")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--json", dest="json_out", default=None)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("euler", help="contraction homology table of one piece")
    p.add_argument("spec")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--weight",
        default=None,
        help="comma-separated weight (torus parts then finite parts); "
        "omitted = aggregate over all weights in the degree",
    )
    p.add_argument("--torus-index", type=int, default=1, help="1-based")
    p.add_argument(
        "--point-quotient",
        action="store_true",
        help="require strictly positive weights (certifies exactness)",
    )
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("canonical", help="canonical module comparison")
    p.add_argument("spec")
    p.add_argument("--max-degree", type=int, default=10)
    p.set_defaults(func=cmd_canonical)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PreconditionError) else 2


def _load(path):
    try:
        return load_action(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(1) from None
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        raise SystemExit(1) from None
    except ValidationError as exc:
        print(f"error: invalid action: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def cmd_analyze(args):
    action = _load(args.spec)
    if args.form_degree == "all":
        ks = None
    else:
        try:
            ks = [int(args.form_degree)]
        except ValueError:
            raise PreconditionError(
                f"--form-degree must be an integer or 'all', "
                f"got {args.form_degree!r}"
            ) from None
    report = run_analysis(action, max_degree=args.max_degree, form_degrees=ks)
    text = report_to_json(report)
    if args.json_out:
        Path(args.json_out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 2 if report["inconclusive"] else 0


def cmd_corpus(args):
    root = Path(args.corpus_dir)
    if not root.is_dir():
        raise PreconditionError(f"not a directory: {root}")
    specs = sorted(
        p for p in root.glob("*.json") if not p.name.endswith(".golden.json")
    )
    if not specs:
        raise PreconditionError(f"empty corpus: {root}")
    results = {}
    for path in specs:
        try:
            report = run_analysis(load_action(path), max_degree=args.max_degree)
        except (EngineError, json.JSONDecodeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            # 1 for a spec that cannot be loaded or a precondition, as
            # `_load` and `main` give; 2 for any other engine error
            input_errors = (json.JSONDecodeError, ValidationError, PreconditionError)
            return 1 if isinstance(exc, input_errors) else 2
        results[path.stem] = report

    violations = []
    mismatches = []
    inconclusive = []
    summary = {}
    for name in sorted(results):
        report = results[name]
        smooth = report["smoothness"]
        line = (
            f"{name}: {smooth['consolidated']}"
            f" agreement={str(smooth['agreement']).lower()}"
        )
        certified = (
            smooth["consolidated"] in ("smooth", "singular")
            and report["hilbert"]["complete"]
        )
        if certified and not smooth["agreement"]:
            violations.append(name)
            line += "  EQUIVALENCE VIOLATED"
        if report["inconclusive"]:
            inconclusive.append(name)
        golden = root / f"{name}.golden.json"
        if golden.exists():
            got = report_to_json(strip_timings(report))
            want = golden.read_text(encoding="utf-8")
            if got != want:
                mismatches.append(name)
                line += "  GOLDEN MISMATCH"
        print(line)
        summary[name] = {
            "consolidated": smooth["consolidated"],
            "agreement": smooth["agreement"],
            "inconclusive": report["inconclusive"],
        }

    exit_code = 0
    if inconclusive:
        exit_code = 2
    if mismatches:
        exit_code = 3
    if violations:
        exit_code = 4
    doc = {
        "schema": 1,
        "instances": summary,
        "violations": violations,
        "golden_mismatches": mismatches,
        "exit": exit_code,
    }
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    print(
        f"{len(specs)} instances: {len(violations)} violations, "
        f"{len(mismatches)} golden mismatches, {len(inconclusive)} inconclusive"
    )
    return exit_code


def cmd_euler(args):
    action = _load(args.spec)
    if action.torus_rank < 1:
        raise PreconditionError(
            "the action has no torus factor; the contraction complex "
            "needs torus rank at least 1"
        )
    if not 1 <= args.torus_index <= action.torus_rank:
        raise PreconditionError(
            f"--torus-index {args.torus_index} outside 1..{action.torus_rank}"
        )
    ti = args.torus_index - 1
    if args.weight is None:
        res = homology_all_weights(
            action,
            args.degree,
            torus_index=ti,
            require_positive_grading=args.point_quotient,
        )
    else:
        try:
            parts = [int(x) for x in args.weight.split(",")]
        except ValueError:
            raise PreconditionError(
                f"--weight must be comma-separated integers, got {args.weight!r}"
            ) from None
        s, t = action.torus_rank, action.t
        if len(parts) != s + t:
            raise PreconditionError(
                f"weight needs {s}+{t} entries, got {len(parts)}"
            )
        w = Weight(
            tuple(parts[:s]),
            tuple(p % m for p, m in zip(parts[s:], action.finite_orders)),
            action.finite_orders,
        )
        res = euler_homology(
            action,
            w,
            args.degree,
            torus_index=ti,
            require_positive_grading=args.point_quotient,
        )
    print("k  dim  homology")
    for k in range(action.n + 1):
        print(f"{k}  {res.dims[k]}  {res.homology[k]}")
    print(f"dims {res.dims} homology {res.homology}")
    return 0


def cmd_canonical(args):
    action = _load(args.spec)
    doc = canonical_comparison(action, args.max_degree)
    print(f"quotient dimension: {doc['dimension']}")
    print(f"invariant-form series:  {doc['series_invariant_forms']}")
    print(f"toric interior series:  {doc['series_toric_interior']}")
    print(f"series match: {doc['match']}")
    if not doc["identification_certified"]:
        print(f"not certified: {doc['caveat']}")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
