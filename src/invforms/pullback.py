"""The invariant pullback of quotient differentials and its cokernel.

The image of the pullback is spanned, over the invariant ring, by
k-fold wedges of differentials of invariant-ring generators; its
kernel is torsion, so this image is the faithful (torsion-free) model
of the quotient's Kähler k-forms.  Surjectivity onto the invariant
horizontal k-forms is decided degreewise against a certified bound on
the degrees of the target's minimal generators.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from math import comb, inf
from operator import add, mul

from invforms.errors import InternalCheckError, PreconditionError
from invforms.euler import horizontal_block, torus_rows
from invforms.invariants import monoid_basis
from invforms.linalg import echelon_of
from invforms.pieces import (
    BlockModule,
    Grading,
    block_form,
    block_key,
    pack,
    support,
)


# The most columns (k-subsets) of a block that `surjectivity_check`
# spans at every point: at n <= 3, where every block has at most three,
# listing orbits slowed the bundled corpus by about 10% and saved less.
NARROW_BLOCK = 3


@dataclass(frozen=True)
class PullbackImage:
    """Wedge generators of the pullback image of the quotient k-forms.

    Each nonzero wedge is kept as its lattice point and Plücker vector
    (`generator_blocks`, see `pieces`), listed by total degree, dependent
    ones included; the engine reads only these.  `wedge_generators` are
    the same wedges as forms, built on first use.
    """

    k: int
    generator_blocks: tuple

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
    columns in subset order.  Minors are built one generator at a time,
    scattering only the nonzero entries of g and of the j-minors v:
    (v ∧ g)_(J ∪ {i}) += (-1)^#{x in J : x > i} g[i] v_J over i in supp g
    not in J and v_J != 0.  Hilbert-basis vectors are sparse, so this
    touches far fewer terms than summing every term of every minor.
    The Hilbert basis ascends by degree, so once the next generator,
    taken for each of the k - j remaining slots, overshoots `max_degree`,
    every later one does too.
    """
    n = action.n
    gens = basis.generators
    degrees = [sum(g) for g in gens]
    supports = [[(i, x) for i, x in enumerate(g) if x] for g in gens]
    cap = inf if max_degree is None else max_degree
    # steps[j][p][i]: (position of J ∪ {i} among the (j+1)-subsets, sign)
    # for J the p-th j-subset, or None when i is in J
    steps = []
    for j in range(k):
        place = {K: q for q, K in enumerate(combinations(range(n), j + 1))}
        steps.append([
            [
                None if i in J else (
                    place[tuple(sorted(J + (i,)))],
                    (-1) ** sum(x > i for x in J),
                )
                for i in range(n)
            ]
            for J in combinations(range(n), j)
        ])
    sizes = [comb(n, j + 1) for j in range(k)]
    out = []

    def extend(first, m, vec, j):
        if j == k:
            out.append((m, vec))
            return
        room = cap - sum(m)
        at_j = steps[j]
        for t in range(first, len(gens) - k + j + 1):
            if (k - j) * degrees[t] > room:
                break
            supp = supports[t]
            nxt = [0] * sizes[j]
            for p, v in enumerate(vec):
                if v:
                    at = at_j[p]
                    for i, x in supp:
                        hit = at[i]
                        if hit is not None:
                            q, sign = hit
                            nxt[q] += sign * x * v
            if any(nxt):
                extend(t + 1, tuple(map(add, m, gens[t])), nxt, j + 1)

    extend(0, (0,) * n, [1], 0)
    return out


def pullback_image(action, k, bound, grading=None):
    """The k-fold wedges of differentials of the invariant generators
    that have degree at most `bound`: every nonzero one, listed by total
    degree, then in subset order.  Dependent wedges are kept; the blocks
    they are lifted to reduce them (`pieces.BlockModule`).
    """
    if k < 0:
        raise PreconditionError(f"form degree must be non-negative, got {k}")
    if grading is None:
        grading = Grading(action)
    basis = monoid_basis(grading, bound)
    if k > action.n:
        return PullbackImage(k, ())
    wedges = _wedge_candidates(action, basis, k, max_degree=bound)
    wedges.sort(key=lambda b: sum(b[0]))
    return PullbackImage(k, tuple(wedges))


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


def surjectivity_check(action, k, bound, grading=None):
    """Degreewise cokernel of the invariant pullback in form degree k.

    Verdict is `surjective` only when every piece up to the certified
    target-generator bound has zero cokernel, `not_surjective` (with
    witness degrees and a canonical witness class) as soon as a piece
    has one, and `inconclusive` when certification is out of reach at
    this bound.  Each piece is computed block by block
    (`pieces.BlockModule`): the image at m is spanned by the wedge
    generators at points p <= m, lifted to m unchanged, and the target
    is the horizontal block at supp m.  A generator is checked once, at
    p: the contractions at m read only k-subsets of supp p, so it lies
    in every target it is lifted to.  A block's cap is thus its target's
    dimension, and a block at its cap saturates the later points of the
    same support that dominate it: they take the cap and are not spanned.

    Image, target and cap are constant on the orbits of the coordinate
    symmetries of the scan (`pieces.Grading.symmetry`), so where that
    group is nontrivial only one point per orbit is spanned, and each
    table entry adds the orbit's size times the value there.  At the
    first degree with a cokernel, the block at every point of each
    short representative's orbit (`pieces.Grading.orbit`) is spanned
    from the generators that point dominates, and the witness is read
    off those blocks as a pointwise sweep reads it.  Blocks of at most
    NARROW_BLOCK columns are all spanned: on those, spanning a block
    costs less than listing its orbit does.
    """
    if grading is None:
        grading = Grading(action)
    basis = monoid_basis(grading, bound)
    image = pullback_image(action, k, bound, grading)
    torus = torus_rows(action)
    target_at = cache(lambda s: horizontal_block(action.n, k, s, torus))
    ncols = comb(action.n, k)
    # without a torus every target is the whole block and holds vec; an
    # insert that finds a pivot leaves the target's span, so it raises
    # before any echelon grows past its target
    spans = cache(lambda s: echelon_of(target_at(s), ncols))
    for p, vec in image.generator_blocks if torus else ():
        if spans(support(p)).insert(vec) is not None:
            raise InternalCheckError(
                f"wedge generator at lattice point {p} is not horizontal"
            )
    orbital = ncols > NARROW_BLOCK and len(grading.symmetry()) > 1
    orbit = grading.orbit if orbital else None
    module = BlockModule(
        grading,
        k,
        lambda s: len(target_at(s)),
        image.generator_blocks,
        orbits=orbital,
    )
    rows = []
    witness = None
    witness_degrees = []
    for d in range(bound + 1):
        tdim = idim = 0
        short = []  # blocks where the image misses part of the target
        for m, s, ech in module.blocks(d):
            target = target_at(s)
            rank = len(target) if ech is None else ech.rank
            size = 1 if orbit is None else len(orbit[m])
            tdim += size * len(target)
            idim += size * rank
            if rank < len(target):
                short.append((m, target, ech.rows))
        coker = tdim - idim
        rows.append((d, tdim, idim, coker))
        if coker > 0:
            witness_degrees.append(d)
            if witness is None:
                if orbit is not None:
                    # span every point of the short orbits as a pointwise
                    # sweep does: from the generators each one dominates
                    gens = [(pack(p), vec) for p, vec in image.generator_blocks]
                    guard = grading.guard
                    short = [
                        (q, target_at(t), _image_rows(key, gens, guard, ncols))
                        for m, _, _ in short
                        for key, q, t in orbit[m]
                    ]
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


def _image_rows(key, gens, guard, ncols):
    """Echelon rows of the generators (packed key, block vector) at the
    points below the one with packed key `key`, lifted to it; `guard`
    is `Grading.guard`."""
    top = key | guard
    below = [vec for p, vec in gens if (top - p) & guard == guard]
    return echelon_of(below, ncols).rows


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
