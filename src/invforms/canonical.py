"""Canonical module of the quotient, by two independent routes.

Route one: invariant horizontal top-forms (top = quotient dimension),
with the Hilbert series counted by the sweep that finds their minimal
generators.  Route two: the combinatorial canonical module of the
invariant semigroup ring, spanned by the weight-zero monomials
interior to the monoid's cone.  On strongly stable small
actions the two series must agree degree by degree under the
convention that a form's total degree counts each dx once.

Route two reads the interior off supports.  The cone {a >= 0 :
(torus rows) . a = 0} has only the inequalities a_i >= 0, so its
relative interior is exactly the set of its points with a_i > 0 on
every coordinate of a support U; the other coordinates vanish on the
whole cone (Bruns–Herzog, Cohen–Macaulay Rings, §6.3; Schrijver, Theory
of Linear and Integer Programming, §8.2).  U is the union of the
supports of the ray generators (`pieces.Grading.rays`), read without a
monoid scan: the cone is pointed and spanned by its extremal rays, so
every point of it, and every Hilbert-basis element, has its support in
U; and the least lattice point on an extremal ray is irreducible, so it
is itself a Hilbert-basis element (Cox–Little–Schenck, Toric Varieties,
§1.2; Bruns–Gubeladze, Polytopes, Rings, and K-Theory, ch. 2).  U is
therefore also the union of the Hilbert-basis supports.
"""

from invforms.action import finite_reflection_elements
from invforms.invariants import invariant_form_generators, quotient_dimension
from invforms.linalg import rank_of_rows
from invforms.pieces import Grading, support


def canonical_invariants(action, bound, grading=None):
    """Minimal generators of the invariant horizontal top-degree forms."""
    if grading is None:
        grading = Grading(action)
    dim_y = quotient_dimension(action, grading)
    return invariant_form_generators(action, dim_y, True, bound, grading)


def toric_canonical_series(action, truncation, grading=None):
    """Counts of weight-zero monomials interior to the monoid cone, by
    degree 0..truncation, as a tuple."""
    if grading is None:
        grading = Grading(action)
    used = set()
    for g in grading.rays:
        used.update(support(g))
    return tuple(
        sum(used.issubset(s) for _, s in grading.weight_zero(d))
        for d in range(truncation + 1)
    )


def torus_part_strongly_stable(action, grading=None):
    """Generic torus orbits closed with finite stabilizer: the monoid
    span must have full dimension inside the torus-weight kernel."""
    dim_y = quotient_dimension(action, grading)
    torus_rows = [list(action.torus_row(j)) for j in range(action.torus_rank)]
    generic_orbit = rank_of_rows(torus_rows, action.n)
    return dim_y == action.n - generic_orbit


def canonical_comparison(action, truncation, grading=None):
    """Both series plus the identification verdict, precondition-aware.

    When a precondition fails the comparison is still reported, but
    flagged as not certified (no claim is made either way).
    """
    if grading is None:
        grading = Grading(action)
    module = canonical_invariants(action, truncation, grading)
    forms = module.series
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
        "series_invariant_forms": list(forms),
        "series_toric_interior": list(toric),
        "match": forms == toric,
        "identification_certified": certified,
        "caveat": reason,
    }

