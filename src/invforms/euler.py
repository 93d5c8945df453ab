"""Euler contraction operators of torus factors and their homology.

Each torus factor induces a degree -1 operator e on forms: e(df) is
the torus weight of f times f on homogeneous f, extended to wedges by
the alternating-sum rule, and O_X-linearly in the coefficient.  The
horizontal forms of the action are the common kernel of these
operators; the finite part contributes none (its Lie algebra is zero).
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import itemgetter

from invforms.action import weight_of_exponents
from invforms.errors import InhomogeneityError, PreconditionError
from invforms.forms import PolyForm
from invforms.linalg import echelon_of, rank_of_rows
from invforms.pieces import (
    Grading,
    block_form,
    block_key,
    block_points,
    exterior_index,
    piece_keys,  # unused here; perfbench/ checks its tracer restores this binding
    support,
)
from invforms.poly import Polynomial


@dataclass(frozen=True)
class EulerOperator:
    """Contraction with the vector field of one torus factor (0-based index)."""

    action: "ActionSpec"
    torus_index: int

    def __post_init__(self):
        if not 0 <= self.torus_index < self.action.torus_rank:
            raise PreconditionError(
                f"torus index {self.torus_index} outside rank {self.action.torus_rank}"
            )


def euler_contract(op, form):
    """Apply the Euler operator; degree k -> k-1, O_X-linear.

    On a basis wedge: e(dx_{i1} ^ ... ^ dx_{ik}) is the alternating sum
    (-1)^(k-r) w_{i_r} x_{i_r} dx_{I minus i_r}, w the torus weights.
    """
    action = op.action
    row = action.torus_row(op.torus_index)
    k = form.degree
    if k == 0 or form.is_zero:
        return PolyForm.zero(form.n, max(k - 1, 0))
    out = PolyForm.zero(form.n, k - 1)
    for I, p in form.components.items():
        for r, i in enumerate(I):
            w = row[i]
            if not w:
                continue
            coeff = p * Polynomial.variable(form.n, i) * w
            if (k - 1 - r) % 2:
                coeff = -coeff
            out = out + PolyForm(form.n, k - 1, {I[:r] + I[r + 1 :]: coeff})
    return out


def horizontal_piece(action, k, degree, weight, grading=None):
    """Canonical basis of the (degree, weight) piece of the horizontal k-forms.

    The piece's kernel basis is the union of its blocks' kernel bases,
    in the piece order of their free columns.
    """
    if grading is None:
        grading = Grading(action)
    found = []
    for m, s in block_points(grading, k, degree, weight):
        basis = horizontal_target(grading, k, s)
        found.extend((block_key(action.n, k, m, v), m, v) for v in basis)
    found.sort(key=itemgetter(0))
    return [block_form(action.n, k, m, v) for _, m, v in found]


def torus_rows(action):
    return [action.torus_row(j) for j in range(action.torus_rank)]


def horizontal_block(n, k, supp, rows, place=None):
    """Canonical basis of the k-forms at a lattice point with support
    `supp` that the contractions by the torus `rows` kill.

    On the block, a contraction is the interior product with the row
    restricted to the support: x^(m - e_I) dx_I goes to
    sum_r (-1)^(k-1-r) w_(I_r) x^(m - e_J) dx_J, J = I minus I_r, in the
    (k-1)-block at the same m.  The kernel basis (one vector per free
    column, ascending) is returned as block vectors (`exterior_basis`),
    placed by `place`, `pieces.exterior_index(n, k)`, which a caller
    that asks for many supports builds once.  With no equations (no
    rows, or k = 0) the kernel is the whole block, one unit vector per
    column, and is read off without an echelon.
    """
    cols = list(combinations(supp, k))
    if place is None:
        place = exterior_index(n, k)
    out = []
    if not rows or not k:
        for I in cols:
            vec = [0] * len(place)
            vec[place[I]] = 1
            out.append(vec)
        return out
    positions = {I: j for j, I in enumerate(cols)}
    equations = []
    for w in rows:
        for J in combinations(supp, k - 1):
            eq = [0] * len(cols)
            for i in supp:
                if w[i] and i not in J:
                    I = tuple(sorted(J + (i,)))
                    eq[positions[I]] = -w[i] if (k - 1 - I.index(i)) % 2 else w[i]
            equations.append(eq)
    for v in echelon_of(equations, len(cols)).kernel_basis():
        vec = [0] * len(place)
        for I, c in zip(cols, v):
            vec[place[I]] = c
        out.append(vec)
    return out


def horizontal_target(grading, k, supp):
    """`horizontal_block` of the action's torus rows at `supp`, the
    target of the pullback and the canonical sweep there, computed once
    per (k, supp) on the call's grading."""
    action = grading.action
    held = grading.targets.get(k)
    if held is None:
        held = grading.targets[k] = (
            exterior_index(action.n, k), torus_rows(action), {}
        )
    place, rows, bases = held
    got = bases.get(supp)
    if got is None:
        got = bases[supp] = horizontal_block(action.n, k, supp, rows, place)
    return got


@dataclass(frozen=True)
class EulerHomology:
    """Per-form-degree piece dimensions and homology dimensions (k = 0..n)."""

    dims: tuple
    homology: tuple


def euler_homology(
    action,
    weight,
    degree,
    restrict_invariant_horizontal=False,
    torus_index=0,
    require_positive_grading=False,
    grading=None,
):
    """Homology of the contraction complex on one (degree, weight) piece.

    The differential is the Euler operator of `torus_index`.  With the
    restriction flag, the complex is cut down to forms invariant and
    horizontal for every other group factor.  The positive-grading
    guard certifies the situation in which the complex is exact away
    from (degree, weight) = (0, 0).
    """
    _check_complex(action, torus_index, require_positive_grading)
    if grading is None:
        grading = Grading(action)
    bucket = [(weight, grading.buckets(degree).get(weight, ()))]
    return _koszul_sum(action, bucket, restrict_invariant_horizontal, torus_index)


def homology_all_weights(
    action,
    degree,
    restrict_invariant_horizontal=False,
    torus_index=0,
    require_positive_grading=False,
):
    """Piece dims and homology at one total degree, summed over weights.

    The contraction operator preserves weights, so homology decomposes
    and the per-weight results can be added.
    """
    _check_complex(action, torus_index, require_positive_grading)
    buckets = Grading(action).buckets(degree).items()
    return _koszul_sum(action, buckets, restrict_invariant_horizontal, torus_index)


def _check_complex(action, torus_index, require_positive_grading):
    if action.torus_rank < 1:
        raise PreconditionError("the action has no torus factor to contract with")
    EulerOperator(action, torus_index)  # raises for an index outside the rank
    if require_positive_grading:
        for i, w in enumerate(action.torus_row(torus_index)):
            if w <= 0:
                raise PreconditionError(
                    f"coordinate {i + 1} has non-positive weight {w}; the "
                    "graded ring does not have a point quotient"
                )


def _koszul_sum(action, buckets, restrict, torus_index):
    """Sum of the homology over the lattice-point blocks of the
    (weight, points) `buckets`.

    At m with S = supp m, the complex is the Koszul complex of the
    distinguished row on V, the annihilator in Q^S of the other rows
    (all of Q^S without the restriction): Λ^k V in degree k, contracted
    by the row restricted to V.  It is exact unless that restriction
    vanishes, that is unless the row restricted to S lies in the span
    of the others restricted to S; then every differential is zero.
    """
    rows = torus_rows(action)
    others = []
    if restrict:
        others = [j for j in range(action.torus_rank) if j != torus_index]
    dims = [0] * (action.n + 1)
    homology = [0] * (action.n + 1)
    blocks = {}  # support -> (dim V, exact)
    for weight, points in buckets:
        # invariance under the other factors forces their weight
        # components to vanish
        if restrict and (any(weight.torus[j] for j in others) or any(weight.finite)):
            continue
        for m in points:
            s = support(m)
            if s not in blocks:
                other = [[rows[j][i] for i in s] for j in others]
                rank = rank_of_rows(other, len(s))
                row = [rows[torus_index][i] for i in s]
                blocks[s] = len(s) - rank, rank_of_rows(other + [row], len(s)) > rank
            dim, exact = blocks[s]
            for k in range(dim + 1):
                dims[k] += comb(dim, k)
                homology[k] += 0 if exact else comb(dim, k)
    return EulerHomology(tuple(dims), tuple(homology))


def bracket_defect(action, form, torus_index=0):
    """e(d a) - d(e a) - (-1)^k w a for a homogeneous of degree k, weight w.

    The contract is that the defect is identically zero; w is the
    weight along the selected torus factor.
    """
    op = EulerOperator(action, torus_index)
    k = form.degree
    w = None
    for I, exps, _ in form.terms():
        wt = weight_of_exponents(action, exps, I).torus[torus_index]
        if w is None:
            w = wt
        elif wt != w:
            raise InhomogeneityError(
                f"form mixes torus weights {w} and {wt} along factor "
                f"{torus_index + 1}"
            )
    if w is None:
        return PolyForm.zero(form.n, k)
    lhs = euler_contract(op, form.d())
    rhs = euler_contract(op, form)
    rhs = rhs.d() if k >= 1 else PolyForm.zero(form.n, k)
    scaled = form * (w if k % 2 == 0 else -w)
    return lhs - rhs - scaled
