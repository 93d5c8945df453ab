"""The invariant pullback of quotient differentials and its cokernel.

The image of the pullback is spanned, over the invariant ring, by
k-fold wedges of differentials of invariant-ring generators; its
kernel is torsion, so this image is the faithful (torsion-free) model
of the quotient's Kähler k-forms.  Surjectivity onto the invariant
horizontal k-forms is decided degreewise against a certified bound on
the degrees of the target's minimal generators.
"""

from dataclasses import dataclass
from itertools import combinations

from invforms.action import zero_weight
from invforms.cones import span_dim
from invforms.errors import InternalCheckError
from invforms.euler import horizontal_piece
from invforms.invariants import certified_basis, monoid_basis
from invforms.linalg import Echelon, echelon_of
from invforms.pieces import (
    Grading,
    form_to_vector,
    piece_keys,
    shifted_rows,
    vector_to_form,
)
from invforms.poly import Polynomial, polynomial_matrix_rank
from invforms.forms import PolyForm


@dataclass(frozen=True)
class PullbackImage:
    """Wedge generators of the pullback image of the quotient k-forms."""

    k: int
    wedge_generators: tuple
    generator_degrees: tuple
    certified_bound: int
    certified: bool


@dataclass(frozen=True)
class CokernelTable:
    """(degree, target dim, image dim, cokernel dim) per total degree."""

    k: int
    rows: tuple


@dataclass(frozen=True)
class SurjectivityResult:
    k: int
    verdict: str  # surjective | not_surjective | inconclusive
    witness_degrees: tuple
    witness: object  # PolyForm or None
    table: CokernelTable
    target_generator_bound: int
    notes: tuple


def _wedge_candidates(action, basis, k):
    diffs = [
        PolyForm.from_poly(Polynomial.monomial(action.n, g)).d()
        for g in basis.generators
    ]
    if k == 0:
        return [PolyForm.from_poly(Polynomial.constant(action.n, 1))]
    wedges = []
    for combo in combinations(diffs, k):
        w = combo[0]
        for f in combo[1:]:
            w = w.wedge(f)
            if w.is_zero:
                break
        if not w.is_zero:
            wedges.append(w)
    return wedges


def pullback_image(action, k, bound, basis=None, grading=None):
    """All k-fold wedges of differentials of the invariant generators.

    Within each total degree, wedges that are constant-linear
    combinations of earlier ones are dropped; that never shrinks the
    spanned module.
    """
    if grading is None:
        grading = Grading(action)
    if basis is None:
        basis = monoid_basis(grading, bound)
    if k > action.n:
        return PullbackImage(k, (), (), bound, basis.complete)
    w0 = zero_weight(action)
    by_degree = {}
    for w in _wedge_candidates(action, basis, k):
        degs = w.total_degrees()
        d = degs.pop() if degs else k
        by_degree.setdefault(d, []).append(w)
    kept = []
    for d in sorted(by_degree):
        keys = piece_keys(action, k, d, w0, grading)
        positions = {key: i for i, key in enumerate(keys)}
        ech = Echelon(len(keys))
        for w in by_degree[d]:
            if ech.insert(form_to_vector(w, positions, len(keys))) is not None:
                kept.append((d, w))
    return PullbackImage(
        k,
        tuple(w for _, w in kept),
        tuple(d for d, _ in kept),
        bound,
        basis.complete,
    )


def target_generator_bound(action, k, basis):
    """Certified degree bound for minimal generators of the invariant
    horizontal k-forms over the invariant ring.

    In monomial-wedge coordinates the module only gains generators at
    monoid elements from which removing any Hilbert-basis generator
    shrinks the support; such elements are sums of at most n basis
    elements, one per lost coordinate.  Finite-only actions also admit
    the group-order (Davenport-type) bound on the coefficient degree.
    """
    support_bound = action.n * basis.max_degree
    if action.torus_rank == 0:
        return min(support_bound, action.group_order + k)
    return support_bound


def _target_piece_vectors(action, k, d, keys, positions, grading):
    forms = horizontal_piece(action, k, d, zero_weight(action), grading)
    return [form_to_vector(f, positions, len(keys)) for f in forms]


def surjectivity_check(action, k, bound, basis=None, grading=None):
    """Degreewise cokernel of the invariant pullback in form degree k.

    Verdict is `surjective` only when every piece up to the certified
    target-generator bound has zero cokernel, `not_surjective` (with
    witness degrees and a canonical witness class) as soon as a piece
    has one, and `inconclusive` when certification is out of reach at
    this bound.
    """
    if grading is None:
        grading = Grading(action)
    if basis is None:
        basis = monoid_basis(grading, bound)
    image = pullback_image(action, k, bound, basis=basis, grading=grading)
    w0 = zero_weight(action)
    shifts = [
        (dg, w0, list(w.terms()))
        for dg, w in zip(image.generator_degrees, image.wedge_generators)
    ]
    rows = []
    witness = None
    witness_degrees = []
    for d in range(bound + 1):
        keys = piece_keys(action, k, d, w0, grading)
        if not keys:
            rows.append((d, 0, 0, 0))
            continue
        positions = {key: i for i, key in enumerate(keys)}
        target_vecs = _target_piece_vectors(action, k, d, keys, positions, grading)
        ech = Echelon(len(keys))
        for row in shifted_rows(action, shifts, d, w0, positions, grading):
            ech.insert(row)
        tdim = len(target_vecs)
        idim = ech.rank
        coker = tdim - idim
        if coker < 0:
            raise InternalCheckError(
                f"image dimension {idim} exceeds target dimension {tdim} "
                f"in degree {d}; the image is not horizontal-invariant"
            )
        rows.append((d, tdim, idim, coker))
        if coker > 0:
            witness_degrees.append(d)
            if witness is None:
                witness = _cokernel_witness(
                    action, k, keys, target_vecs, ech.rows
                )
    table = CokernelTable(k, tuple(rows))
    cert = target_generator_bound(action, k, basis)
    notes = []
    if not basis.complete:
        verdict = "inconclusive"
        notes.append(
            "invariant-ring generators not certified complete at this bound"
        )
    elif witness_degrees:
        verdict = "not_surjective"
    elif bound >= cert:
        verdict = "surjective"
    else:
        verdict = "inconclusive"
        notes.append(
            f"no cokernel found up to degree {bound}, but target generators "
            f"are only certified below degree {cert}"
        )
    return SurjectivityResult(
        k,
        verdict,
        tuple(witness_degrees),
        witness,
        table,
        cert,
        tuple(notes),
    )


def _cokernel_witness(action, k, keys, target_vecs, image_rows):
    """Canonical nonzero target element orthogonal to the image piece."""
    cond = [
        [sum(a * b for a, b in zip(t, n)) for t in target_vecs]
        for n in image_rows
    ]
    kern = echelon_of(cond, len(target_vecs)).kernel_basis()
    c = kern[0]
    vec = [
        sum(c[b] * target_vecs[b][j] for b in range(len(target_vecs)))
        for j in range(len(keys))
    ]
    return vector_to_form(action.n, k, vec, keys)


def torsion_free_rank(action, k, basis=None):
    """Generic rank of the pullback image: exact elimination over the
    rational function field on the wedge-generator matrix."""
    if k > action.n or k < 0:
        return 0
    if basis is None:
        basis = certified_basis(Grading(action))
    wedges = _wedge_candidates(action, basis, k)
    subsets = [tuple(c) for c in combinations(range(action.n), k)]
    rows = [
        [w.components.get(I, Polynomial.zero(action.n)) for I in subsets]
        for w in wedges
    ]
    rank = polynomial_matrix_rank(rows)
    expected = _binomial(span_dim(basis.generators, action.n), k)
    if basis.complete and rank != expected:
        raise InternalCheckError(
            f"generic rank {rank} of the pullback image differs from "
            f"C(dim Y, {k}) = {expected}"
        )
    return rank


def _binomial(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
