"""Assembly of the machine-readable analysis report.

The report is a plain dict serialized with sorted keys and two-space
indentation; with the "timings_ms" key removed it is byte-identical
across runs for a fixed input and bound.
"""

import json
import time

from invforms import __version__
from invforms.action import action_to_dict
from invforms.canonical import canonical_comparison
from invforms.errors import EngineError
from invforms.invariants import (
    analysis_basis,
    invariant_ring_series,
    quotient_dimension,
)
from invforms.pieces import Grading
from invforms.pullback import surjectivity_check
from invforms.smoothness import (
    isolated_singularity_certificate,
    smoothness_verdict,
)

SCHEMA_VERSION = 1


def default_bound(action):
    """Conservative default degree bound: twice the finite group order,
    at least 12."""
    return max(2 * action.group_order, 12)


def run_analysis(action, max_degree=None, form_degrees=None, with_canonical=True):
    """Full pipeline on one action; returns the report dict."""
    bound = default_bound(action) if max_degree is None else max_degree
    timings = {}
    inconclusive = []
    # every stage reads monomials, the Hilbert basis and its
    # certificate bound from this one grading
    grading = Grading(action)

    t0 = time.perf_counter()
    basis = analysis_basis(grading, bound)
    dim_y = quotient_dimension(action, grading)
    series = invariant_ring_series(action, bound, grading)
    timings["hilbert"] = _ms(t0)
    if not basis.complete:
        inconclusive.append(
            f"hilbert basis not certified complete at degree {bound} "
            f"(certificate bound {basis.certificate_bound})"
        )

    if form_degrees is None:
        ks = list(range(1, dim_y + 1))
    else:
        ks = sorted(set(form_degrees))

    t0 = time.perf_counter()
    surj_results = [
        surjectivity_check(action, k, bound, basis=basis, grading=grading)
        for k in ks
    ]
    timings["surjectivity"] = _ms(t0)
    surj_section = {}
    for res in surj_results:
        if res.verdict == "inconclusive":
            inconclusive.append(
                f"surjectivity in form degree {res.k} inconclusive: "
                + "; ".join(res.notes)
            )
        surj_section[str(res.k)] = {
            "verdict": res.verdict,
            "witness_degrees": list(res.witness_degrees),
            "witness": None if res.witness is None else str(res.witness),
            "target_generator_bound": res.target_generator_bound,
            "notes": list(res.notes),
            "cokernel_table": [list(r) for r in res.table.rows],
        }

    t0 = time.perf_counter()
    full = form_degrees is None
    verdict = smoothness_verdict(
        action,
        bound,
        surjectivity_results=surj_results if full else None,
        grading=grading,
    )
    timings["smoothness"] = _ms(t0)
    if verdict.consolidated == "inconclusive":
        inconclusive.append("smoothness verdict inconclusive")

    canonical_section = None
    if with_canonical:
        t0 = time.perf_counter()
        try:
            canonical_section = canonical_comparison(
                action, min(bound, max(10, dim_y)), grading
            )
        except EngineError as exc:
            canonical_section = {"skipped": str(exc)}
            inconclusive.append(f"canonical comparison skipped: {exc}")
        timings["canonical"] = _ms(t0)

    return {
        "schema": SCHEMA_VERSION,
        "engine_version": __version__,
        "action": action_to_dict(action),
        "bounds": {
            "max_degree": bound,
            "hilbert_certificate": basis.certificate_bound,
        },
        "hilbert": {
            "basis": [list(g) for g in basis.generators],
            "complete": basis.complete,
            "series_invariant_ring": list(series.coefficients),
        },
        "quotient_dim": dim_y,
        "surjectivity": surj_section,
        "smoothness": {
            "monoid": verdict.monoid,
            "shephard_todd": verdict.shephard_todd,
            "surjectivity": {str(k): v for k, v in verdict.surjectivity},
            "consolidated": verdict.consolidated,
            "agreement": verdict.agreement,
        },
        "canonical": canonical_section,
        # a smooth quotient has empty singular locus, hence isolated
        "isolated_singularity": (
            "isolated"
            if verdict.consolidated == "smooth"
            else isolated_singularity_certificate(action, grading)
        ),
        "inconclusive": inconclusive,
        "timings_ms": timings,
    }


def _ms(t0):
    return round((time.perf_counter() - t0) * 1000.0, 3)


def strip_timings(report):
    return {k: v for k, v in report.items() if k != "timings_ms"}


def report_to_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
