"""Canonical module of the quotient, by two independent routes.

Route one: invariant horizontal top-forms (top = quotient dimension),
with their Hilbert series.  Route two: the combinatorial canonical
module of the invariant semigroup ring, spanned by the weight-zero
monomials interior to the monoid's cone.  On strongly stable small
actions the two series must agree degree by degree under the
convention that a form's total degree counts each dx once.
"""

from invforms.action import finite_reflection_elements, zero_weight
from invforms.cones import facet_normals, in_relative_interior
from invforms.errors import InternalCheckError, PreconditionError
from invforms.invariants import (
    HilbertSeries,
    certified_basis,
    hilbert_series_of,
    invariant_form_generators,
    quotient_dimension,
)
from invforms.linalg import rank_of_rows
from invforms.pieces import Grading, monomials_with_weight
from invforms.pullback import surjectivity_check


def canonical_invariants(action, bound, grading=None):
    """Minimal generators of the invariant horizontal top-degree forms."""
    if grading is None:
        grading = Grading(action)
    dim_y = quotient_dimension(action, grading)
    return invariant_form_generators(action, dim_y, True, bound, grading)


def toric_canonical_series(action, truncation, grading=None):
    """Counts of weight-zero monomials interior to the monoid cone.

    Requires a certified Hilbert basis (the cone must be known exactly).
    """
    if grading is None:
        grading = Grading(action)
    basis = certified_basis(grading)
    if not basis.complete:
        raise PreconditionError(
            "invariant monoid not certified; cannot fix the cone"
        )
    normals = facet_normals(basis.generators)
    w0 = zero_weight(action)
    coeffs = []
    for d in range(truncation + 1):
        coeffs.append(
            sum(
                1
                for exps in monomials_with_weight(action, d, w0, grading)
                if in_relative_interior(exps, normals)
            )
        )
    return HilbertSeries(tuple(coeffs))


def torus_part_strongly_stable(action, grading=None):
    """Generic torus orbits closed with finite stabilizer: the monoid
    span must have full dimension inside the torus-weight kernel."""
    dim_y = quotient_dimension(action, grading)
    torus_rows = [list(action.torus_row(j)) for j in range(action.torus_rank)]
    generic_orbit = rank_of_rows(torus_rows, action.n)
    return dim_y == action.n - generic_orbit


def canonical_series_check(action, truncation):
    """Equality of the two canonical-module series up to `truncation`.

    Preconditions: the finite part is small (pseudo-reflections break
    the identification) and the torus part is strongly stable.
    """
    grading = Grading(action)
    reflections = finite_reflection_elements(action)
    if reflections:
        raise PreconditionError(
            "finite part is not small; pseudo-reflections present: "
            + ", ".join(str(r) for r in reflections)
        )
    if not torus_part_strongly_stable(action, grading):
        raise PreconditionError(
            "torus part is not strongly stable; generic orbits are not "
            "closed with finite stabilizer"
        )
    forms = hilbert_series_of(
        canonical_invariants(action, truncation, grading),
        action,
        truncation,
        grading,
    )
    toric = toric_canonical_series(action, truncation, grading)
    return forms.coefficients == toric.coefficients


def canonical_comparison(action, truncation, grading=None):
    """Both series plus the identification verdict, precondition-aware.

    When a precondition fails the comparison is still reported, but
    flagged as not certified (no claim is made either way).
    """
    if grading is None:
        grading = Grading(action)
    module = canonical_invariants(action, truncation, grading)
    forms = hilbert_series_of(module, action, truncation, grading)
    toric = toric_canonical_series(action, truncation, grading)
    reflections = finite_reflection_elements(action)
    stable = torus_part_strongly_stable(action, grading)
    certified = not reflections and stable
    reason = None
    if reflections:
        reason = "pseudo-reflections present: " + ", ".join(
            str(r) for r in reflections
        )
    elif not stable:
        reason = "torus part not strongly stable"
    return {
        "dimension": quotient_dimension(action, grading),
        "generator_degrees": list(module.generator_degrees),
        "series_invariant_forms": list(forms.coefficients),
        "series_toric_interior": list(toric.coefficients),
        "match": forms.coefficients == toric.coefficients,
        "identification_certified": certified,
        "caveat": reason,
    }


def containment_chain_check(action, k, bound):
    """Degreewise containment of the pullback image in the invariant
    horizontal forms: (degree, image dim, target dim, equal) rows.

    A violated inequality is an engine bug, not a mathematical outcome.
    """
    res = surjectivity_check(action, k, bound)
    rows = []
    for d, tdim, idim, coker in res.table.rows:
        if idim > tdim:
            raise InternalCheckError(
                f"containment violated in degree {d}: image {idim} > "
                f"target {tdim}"
            )
        rows.append((d, idim, tdim, coker == 0))
    return tuple(rows)
