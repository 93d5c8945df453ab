"""Euler contraction operators of torus factors and their homology.

Each torus factor induces a degree -1 operator e on forms: e(df) is
the torus weight of f times f on homogeneous f, extended to wedges by
the alternating-sum rule, and O_X-linearly in the coefficient.  The
horizontal forms of the action are the common kernel of these
operators; the finite part contributes none (its Lie algebra is zero).
"""

from dataclasses import dataclass

from invforms.action import weight_of_exponents, zero_weight
from invforms.errors import InhomogeneityError, PreconditionError
from invforms.forms import PolyForm
from invforms.linalg import Echelon, echelon_of
from invforms.pieces import Grading, form_to_vector, piece_keys, vector_to_form
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

    def __call__(self, form):
        return euler_contract(self, form)


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


def dmu(action, form):
    """All torus contractions of the form, one per torus factor.

    The returned list is empty exactly when the torus rank is zero, in
    which case every form is horizontal.
    """
    return [
        euler_contract(EulerOperator(action, j), form)
        for j in range(action.torus_rank)
    ]


def is_horizontal(action, form):
    return all(c.is_zero for c in dmu(action, form))


def _euler_rows(action, k, src_keys, tgt_positions, torus_indices):
    """Rows of the stacked contraction maps on one piece (one row per
    source basis element, concatenated target blocks)."""
    ncols = len(tgt_positions)
    rows = []
    for I, exps in src_keys:
        blocks = []
        for j in torus_indices:
            op = EulerOperator(action, j)
            img = euler_contract(op, PolyForm.monomial_form(action.n, exps, I))
            blocks.extend(form_to_vector(img, tgt_positions, ncols))
        rows.append(blocks)
    return rows


def horizontal_piece(action, k, degree, weight, grading=None, keys=None):
    """Canonical basis of the (degree, weight) piece of the horizontal k-forms.

    `keys`, when given, is that piece's `piece_keys` basis.
    """
    if grading is None:
        grading = Grading(action)
    if keys is None:
        keys = piece_keys(action, k, degree, weight, grading)
    if not keys:
        return []
    if action.torus_rank == 0:
        return [
            PolyForm.monomial_form(action.n, exps, I) for I, exps in keys
        ]
    tgt_keys = piece_keys(action, k - 1, degree, weight, grading) if k else []
    tgt_positions = {key: i for i, key in enumerate(tgt_keys)}
    rows = _euler_rows(
        action, k, keys, tgt_positions, range(action.torus_rank)
    )
    # kernel of the map = solutions of (row per target coordinate) v = 0
    if not tgt_keys or k == 0:
        return [
            PolyForm.monomial_form(action.n, exps, I) for I, exps in keys
        ]
    equations = [
        [rows[b][i] for b in range(len(keys))]
        for i in range(len(rows[0]))
    ]
    kern = echelon_of(equations, len(keys)).kernel_basis()
    return [vector_to_form(action.n, k, v, keys) for v in kern]


def horizontal_vectors(action, k, degree, keys, positions, grading):
    """Coordinates of the weight-zero `horizontal_piece` in its basis `keys`."""
    forms = horizontal_piece(action, k, degree, zero_weight(action), grading, keys)
    return [form_to_vector(f, positions, len(keys)) for f in forms]


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
    if action.torus_rank < 1:
        raise PreconditionError("the action has no torus factor to contract with")
    if require_positive_grading:
        row = action.torus_row(torus_index)
        for i, w in enumerate(row):
            if w <= 0:
                raise PreconditionError(
                    f"coordinate {i + 1} has non-positive weight {w}; the "
                    "graded ring does not have a point quotient"
                )
    n = action.n
    if grading is None:
        grading = Grading(action)
    op = EulerOperator(action, torus_index)
    others = [j for j in range(action.torus_rank) if j != torus_index]

    invariant_ok = True
    if restrict_invariant_horizontal:
        # invariance under the other factors forces their weight
        # components to vanish
        if any(
            w for j, w in enumerate(weight.torus) if j != torus_index
        ) or any(weight.finite):
            invariant_ok = False

    piece = {}
    for k in range(n + 1):
        if not invariant_ok:
            piece[k] = ([], [])
            continue
        keys = piece_keys(action, k, degree, weight, grading)
        if restrict_invariant_horizontal and others and keys:
            tgt_keys = piece[k - 1][0] if k else []
            tgt_positions = {key: i for i, key in enumerate(tgt_keys)}
            if k == 0 or not tgt_keys:
                vectors = [_unit(len(keys), i) for i in range(len(keys))]
            else:
                rows = _euler_rows(action, k, keys, tgt_positions, others)
                equations = [
                    [rows[b][i] for b in range(len(keys))]
                    for i in range(len(rows[0]))
                ]
                vectors = echelon_of(equations, len(keys)).kernel_basis()
        else:
            vectors = [_unit(len(keys), i) for i in range(len(keys))]
        piece[k] = (keys, vectors)

    ranks = [0] * (n + 2)  # ranks[k] = rank of e on the degree-k subspace
    for k in range(1, n + 1):
        keys, vectors = piece[k]
        if not vectors:
            continue
        tgt_keys = piece[k - 1][0]
        tgt_positions = {key: i for i, key in enumerate(tgt_keys)}
        ech = Echelon(max(len(tgt_keys), 1))
        for v in vectors:
            form = vector_to_form(action.n, k, v, keys)
            img = euler_contract(op, form)
            ech.insert(form_to_vector(img, tgt_positions, max(len(tgt_keys), 1)))
        ranks[k] = ech.rank

    dims = tuple(len(piece[k][1]) for k in range(n + 1))
    homology = tuple(
        dims[k] - ranks[k] - ranks[k + 1] if k < n else dims[k] - ranks[k]
        for k in range(n + 1)
    )
    return EulerHomology(dims, homology)


def _unit(ncols, i):
    v = [0] * ncols
    v[i] = 1
    return v


def occurring_weights(action, degree, grading=None):
    """All weights of monomial forms of the given total degree, any k.

    x^a dx_I has the weight of the monomial x^(a + e_I), of the same
    total degree, so these are the weights of the degree's monomials.
    """
    if grading is None:
        grading = Grading(action)
    return list(grading.buckets(degree))


def homology_all_weights(action, degree, **kwargs):
    """Piece dims and homology at one total degree, summed over weights.

    The contraction operator preserves weights, so homology decomposes
    and the per-weight results can be added.
    """
    grading = Grading(action)
    dims = [0] * (action.n + 1)
    hom = [0] * (action.n + 1)
    for w in occurring_weights(action, degree, grading):
        res = euler_homology(action, w, degree, grading=grading, **kwargs)
        dims = [a + b for a, b in zip(dims, res.dims)]
        hom = [a + b for a, b in zip(hom, res.homology)]
    return EulerHomology(tuple(dims), tuple(hom))


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
