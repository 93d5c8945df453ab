"""The invariant pullback of quotient differentials and its cokernel.

The image of the pullback is spanned, over the invariant ring, by
k-fold wedges of differentials of invariant-ring generators; its
kernel is torsion, so this image is the faithful (torsion-free) model
of the quotient's Kähler k-forms.  Surjectivity onto the invariant
horizontal k-forms is decided degreewise against a certified bound on
the degrees of the target's minimal generators.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, inf
from operator import add, mul

from invforms.action import zero_weight
from invforms.errors import InternalCheckError, PreconditionError
from invforms.euler import horizontal_block, torus_rows
from invforms.invariants import monoid_basis
from invforms.linalg import Echelon, echelon_of
from invforms.pieces import (
    Grading,
    Saturation,
    block_form,
    block_key,
    block_points,
    block_span,
)


@dataclass(frozen=True)
class PullbackImage:
    """Wedge generators of the pullback image of the quotient k-forms.

    Each generator is kept as its lattice point and Plücker vector
    (`generator_blocks`, see `pieces`); `wedge_generators` are the same
    wedges as forms, built on first use.
    """

    k: int
    generator_blocks: tuple
    generator_degrees: tuple
    certified_bound: int
    certified: bool

    @cached_property
    def wedge_generators(self):
        return tuple(
            block_form(len(m), self.k, m, vec) for m, vec in self.generator_blocks
        )


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


def _wedge_candidates(action, basis, k, *, max_degree=None):
    """Each k-subset of the Hilbert basis with a nonzero wedge of
    differentials, as (lattice point, Plücker vector), in subset order;
    with `max_degree`, only those whose lattice point has degree at most
    that.

    d(x^g_1) ∧ ... ∧ d(x^g_k) = sum_I det(g_j[i])_(i in I) x^(m - e_I) dx_I
    with m = g_1 + ... + g_k, so the wedge lies in block m (see `pieces`)
    and its block vector is the k x k minors, rows in I order and
    columns in subset order.  Minors are built one generator at a time:
    (v ∧ g)_K = sum_r (-1)^(j-r) g[K_r] v_(K minus K_r) for |K| = j + 1.
    The Hilbert basis ascends by degree, so once the next generator,
    taken for each of the k - j remaining slots, overshoots `max_degree`,
    every later one does too.
    """
    n = action.n
    gens = basis.generators
    degrees = [sum(g) for g in gens]
    cap = inf if max_degree is None else max_degree
    steps = []
    for j in range(k):
        place = {J: p for p, J in enumerate(combinations(range(n), j))}
        steps.append([
            [((-1) ** (j - r), i, place[K[:r] + K[r + 1 :]]) for r, i in enumerate(K)]
            for K in combinations(range(n), j + 1)
        ])
    out = []

    def extend(first, m, vec, j):
        if j == k:
            out.append((m, vec))
            return
        room = cap - sum(m)
        for t in range(first, len(gens) - k + j + 1):
            if (k - j) * degrees[t] > room:
                break
            g = gens[t]
            nxt = [sum(s * g[i] * vec[p] for s, i, p in terms) for terms in steps[j]]
            if any(nxt):
                extend(t + 1, tuple(map(add, m, g)), nxt, j + 1)

    extend(0, (0,) * n, [1], 0)
    return out


def pullback_image(action, k, bound, basis=None, grading=None):
    """The k-fold wedges of differentials of the invariant generators
    that have degree at most `bound`.

    A wedge that is a constant-linear combination of earlier wedges at
    its lattice point is dropped; that never shrinks the spanned module.
    All wedges at one lattice point share its degree, so the cap drops
    whole lattice points and keeps the same wedges below it.  Generators
    are listed by total degree, then in subset order.
    """
    if k < 0:
        raise PreconditionError(f"form degree must be non-negative, got {k}")
    if grading is None:
        grading = Grading(action)
    if basis is None:
        basis = monoid_basis(grading, bound)
    if k > action.n:
        return PullbackImage(k, (), (), bound, basis.complete)
    blocks = {}
    kept = []
    for m, vec in _wedge_candidates(action, basis, k, max_degree=bound):
        if m not in blocks:
            blocks[m] = Echelon(len(vec))
        if blocks[m].insert(vec) is not None:
            kept.append((m, vec))
    kept.sort(key=lambda b: sum(b[0]))
    return PullbackImage(
        k, tuple(kept), tuple(sum(m) for m, _ in kept), bound, basis.complete
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


def surjectivity_check(action, k, bound, basis=None, grading=None):
    """Degreewise cokernel of the invariant pullback in form degree k.

    Verdict is `surjective` only when every piece up to the certified
    target-generator bound has zero cokernel, `not_surjective` (with
    witness degrees and a canonical witness class) as soon as a piece
    has one, and `inconclusive` when certification is out of reach at
    this bound.  Each piece is computed block by block: the image at m
    is spanned by the wedge generators at lattice points <= m, and the
    target is the horizontal block at supp m.  An image block that
    reaches its cap C(|supp m|, k) is the whole target there (a larger
    image would have failed the horizontality check), and so is the
    image at every later point of the same support that dominates it,
    which therefore takes the cap without a `block_span`
    (`pieces.Saturation`).
    """
    if grading is None:
        grading = Grading(action)
    if basis is None:
        basis = monoid_basis(grading, bound)
    image = pullback_image(action, k, bound, basis=basis, grading=grading)
    w0 = zero_weight(action)
    ncols = comb(action.n, k)
    gens = image.generator_blocks
    torus = torus_rows(action)
    rows = []
    witness = None
    witness_degrees = []
    targets = {}
    capped = Saturation()
    for d in range(bound + 1):
        tdim = idim = 0
        short = []  # blocks where the image misses part of the target
        # generators are sorted by degree; later ones reach no block here
        usable = gens[: bisect_right(image.generator_degrees, d)]
        for m, s in block_points(grading, k, d, w0):
            if s not in targets:
                targets[s] = horizontal_block(action.n, k, s, torus)
            target = targets[s]
            tdim += len(target)
            if capped.covers(m, s):
                idim += len(target)
                continue
            full = comb(len(s), k)
            ech = block_span(usable, m, ncols, full)
            if ech.rank > len(target):
                raise InternalCheckError(
                    f"image dimension {ech.rank} exceeds target dimension "
                    f"{len(target)} in degree {d} at lattice point {m}; the "
                    "image is not horizontal-invariant"
                )
            idim += ech.rank
            if ech.rank == full:
                capped.record(m, s)
            elif ech.rank < len(target):
                short.append((m, target, ech.rows))
        coker = tdim - idim
        rows.append((d, tdim, idim, coker))
        if coker > 0:
            witness_degrees.append(d)
            if witness is None:
                witness = _cokernel_witness(action.n, k, short)
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


def _cokernel_witness(n, k, blocks):
    """Canonical nonzero target element orthogonal to the image piece.

    This is the first kernel vector of the pairing between the piece's
    image rows and its target basis, whose columns ascend by their free
    column.  Both are block diagonal, so that vector lies in the block
    (m, target basis, image rows) whose own first kernel vector has the
    least free target column in piece order.
    """
    best = None
    for m, target, image_rows in blocks:
        cond = [[sum(map(mul, t, r)) for t in target] for r in image_rows]
        c = echelon_of(cond, len(target)).kernel_basis()[0]
        free = max(b for b, x in enumerate(c) if x)
        key = block_key(n, k, m, target[free])
        if best is None or key < best[0]:
            best = key, m, [sum(map(mul, c, col)) for col in zip(*target)]
    return block_form(n, k, best[1], best[2])
