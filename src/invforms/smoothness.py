"""Smoothness of the quotient by independent routes.

Finite-only actions admit the pseudo-reflection criterion; every
action admits the combinatorial monoid-freeness criterion; and the
invariant pullback gives a differential criterion.  The routes are
computed independently and the consolidated verdict records whether
they agree.
"""

from dataclasses import dataclass
from math import prod

from invforms.action import action_vector, iter_finite_elements, moved_coordinates
from invforms.cones import congruence_lattice_basis, same_lattice
from invforms.errors import InternalCheckError, UnsupportedRouteError
from invforms.invariants import monoid_basis, quotient_dimension
from invforms.pieces import Grading
from invforms.pullback import surjectivity_check


def shephard_todd_smooth(action):
    """True iff the pseudo-reflections generate the whole acting group.

    Comparison happens between images in the diagonal matrix group, so
    factors acting trivially never spoil the verdict.  The image G is a
    group of diagonal matrices; the pseudo-reflections moving coordinate
    i are the nonidentity elements of the subgroup H_i of G fixing every
    other coordinate.  Elements of distinct H_i move disjoint
    coordinates, so the reflections generate the direct product of the
    H_i, a subgroup of G of order prod_i |H_i|, and they generate G iff
    |G| equals that product.
    """
    if action.torus_rank > 0:
        raise UnsupportedRouteError(
            "the pseudo-reflection criterion applies to finite actions only"
        )
    image = {action_vector(action, e) for e in iter_finite_elements(action)}
    orders = [1] * action.n  # |H_i|: the identity and the reflections moving i
    for v in image:
        moved = [i for i, x in enumerate(v) if x]
        if len(moved) == 1:
            orders[moved[0]] += 1
    return len(image) == prod(orders)


def monoid_smooth(action, bound, grading=None):
    """Toric criterion: the quotient is smooth iff the weight-zero monoid
    is free, i.e. the Hilbert basis is linearly independent.

    A cross-check verifies the generators are a lattice basis of the
    weight-kernel lattice restricted to their span; for a certified
    basis the two tests cannot disagree.
    """
    if grading is None:
        grading = Grading(action)
    basis = monoid_basis(grading, bound)
    if not basis.complete:
        return "inconclusive"
    gens = [list(g) for g in basis.generators]
    if not gens:
        return "smooth"
    # a complete basis is the whole Hilbert basis, whose rank is dim Y
    free = len(gens) == quotient_dimension(action, grading)
    if free:
        # determinant cross-check: independent Hilbert-basis generators
        # must be a lattice basis of the weight kernel on their span
        lattice = congruence_lattice_basis(action)
        sub = _sublattice_in_span(lattice, gens, action.n)
        if not same_lattice(gens, sub, action.n):
            raise InternalCheckError(
                "free monoid generators fail the lattice-basis determinant "
                "test on a certified instance"
            )
    return "smooth" if free else "singular"


def _sublattice_in_span(lattice_rows, gens, n):
    """Basis of (lattice) intersect (rational span of gens)."""
    from invforms.cones import dot, hnf_rows, integer_kernel
    from invforms.linalg import kernel_of_rows

    ortho = kernel_of_rows(gens, n)  # rows spanning the orthogonal complement
    if not ortho:
        return lattice_rows
    cond = [[dot(o, row) for row in lattice_rows] for o in ortho]
    coeffs = integer_kernel(cond, len(lattice_rows))
    vecs = [
        [
            sum(c[r] * lattice_rows[r][j] for r in range(len(lattice_rows)))
            for j in range(n)
        ]
        for c in coeffs
    ]
    return hnf_rows(vecs, n)[0]


def isolated_singularity_certificate(action, grading=None):
    """Conservative test that the singular locus is at most the origin.

    Finite part: certified when every element acting nontrivially moves
    all coordinates.  Torus factors: certified when the quotient has
    dimension at most 2 (normal toric surfaces have isolated
    singularities).  Returns one of 'isolated', 'unknown'.
    """
    if action.torus_rank == 0:
        for e in iter_finite_elements(action):
            moved = moved_coordinates(action, e)
            if moved and len(moved) < action.n:
                return "unknown"
        return "isolated"
    return "isolated" if quotient_dimension(action, grading) <= 2 else "unknown"


@dataclass(frozen=True)
class SmoothnessVerdict:
    monoid: str
    shephard_todd: str  # smooth | singular | not_applicable
    surjectivity: tuple  # ((k, verdict), ...) for k = 1..dim Y
    consolidated: str  # smooth | singular | inconclusive | disagreement
    agreement: bool
    quotient_dim: int


def smoothness_verdict(action, bound, surjectivity_results=None, grading=None):
    """Run every applicable route and consolidate.

    `surjectivity_results` may carry precomputed SurjectivityResult
    objects for k = 1..dim Y to avoid recomputation.
    """
    if grading is None:
        grading = Grading(action)
    dim_y = quotient_dimension(action, grading)
    monoid = monoid_smooth(action, bound, grading)
    if action.torus_rank == 0:
        st = "smooth" if shephard_todd_smooth(action) else "singular"
    else:
        st = "not_applicable"
    if surjectivity_results is None:
        surjectivity_results = [
            surjectivity_check(action, k, bound, grading=grading)
            for k in range(1, dim_y + 1)
        ]
    surj = [(res.k, res.verdict) for res in surjectivity_results]

    claims = []
    if monoid != "inconclusive":
        claims.append(monoid == "smooth")
    if st != "not_applicable":
        claims.append(st == "smooth")
    surj_verdicts = [v for _, v in surj]
    if any(v == "not_surjective" for v in surj_verdicts):
        claims.append(False)
        surj_claim = False
    elif surj_verdicts and all(v == "surjective" for v in surj_verdicts):
        claims.append(True)
        surj_claim = True
    else:
        surj_claim = None

    inconclusive = (
        monoid == "inconclusive" or (surj_verdicts and surj_claim is None)
    )
    agreement = len(set(claims)) <= 1
    if not agreement:
        consolidated = "disagreement"
    elif inconclusive:
        consolidated = "inconclusive"
    elif claims:
        consolidated = "smooth" if claims[0] else "singular"
    else:
        consolidated = "inconclusive"
    return SmoothnessVerdict(
        monoid, st, tuple(surj), consolidated, agreement, dim_y
    )
