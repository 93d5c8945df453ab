"""Diagonal actions of (torus)^s x (finite abelian) on affine n-space.

An action is a weight matrix: one integer row per torus factor and one
residue row per finite cyclic factor.  Weights of monomials and forms
live in Z^s x Z/m_1 x ... x Z/m_t and grade every module in the
engine; dx_i carries the weight of x_i.
"""

import json
from dataclasses import dataclass
from itertools import product
from math import lcm, prod

from invforms.errors import ResourceLimitError, StructuralError, ValidationError

GROUP_ORDER_GUARD = 10**6


@dataclass(frozen=True)
class Weight:
    """Element of Z^s x Z/m_1 x ... x Z/m_t (finite parts stored reduced)."""

    torus: tuple
    finite: tuple
    orders: tuple

    @property
    def is_zero(self):
        return not any(self.torus) and not any(self.finite)

    def __str__(self):
        return "(" + ",".join(map(str, self.torus + self.finite)) + ")"


@dataclass(frozen=True)
class ActionSpec:
    """n coordinates, s torus rows (signed ints), t finite rows (residues)."""

    n: int
    torus_rank: int
    finite_orders: tuple
    weight_matrix: tuple  # (s + t) rows of length n

    @property
    def t(self):
        return len(self.finite_orders)

    def torus_row(self, j):
        return self.weight_matrix[j]

    def finite_row(self, j):
        return self.weight_matrix[self.torus_rank + j]

    @property
    def group_order(self):
        """Order of the finite part."""
        return prod(self.finite_orders)


def make_action(n, torus_rank=0, finite_orders=(), weight_matrix=()):
    """Build and normalize an ActionSpec, validating shapes and orders."""
    spec = ActionSpec(
        int(n),
        int(torus_rank),
        tuple(int(m) for m in finite_orders),
        tuple(tuple(int(w) for w in row) for row in weight_matrix),
    )
    return validate_action(spec)


def validate_action(spec):
    """Return the normalized spec: finite rows reduced, shapes checked."""
    if spec.n < 1:
        raise ValidationError(f"need at least one coordinate, got n={spec.n}")
    if spec.torus_rank < 0:
        raise ValidationError(f"negative torus rank {spec.torus_rank}")
    for j, m in enumerate(spec.finite_orders):
        if m < 2:
            raise ValidationError(
                f"finite order m_{j + 1} = {m} must be at least 2", row=spec.torus_rank + j
            )
    nrows = spec.torus_rank + len(spec.finite_orders)
    if len(spec.weight_matrix) != nrows:
        raise ValidationError(
            f"weight matrix has {len(spec.weight_matrix)} rows, expected {nrows}"
        )
    rows = []
    for r, row in enumerate(spec.weight_matrix):
        if len(row) != spec.n:
            raise ValidationError(
                f"weight matrix row {r} has {len(row)} entries, expected {spec.n}",
                row=r,
            )
        if r >= spec.torus_rank:
            m = spec.finite_orders[r - spec.torus_rank]
            row = tuple(w % m for w in row)
        rows.append(tuple(row))
    return ActionSpec(spec.n, spec.torus_rank, spec.finite_orders, tuple(rows))


def weight_of_exponents(action, exps, indices=()):
    """Weight of the monomial form x^exps dx_I (I may be empty)."""
    if len(exps) != action.n:
        raise StructuralError(
            f"exponent vector of length {len(exps)}, expected {action.n}"
        )
    total = list(exps)
    for i in indices:
        total[i] += 1
    torus = tuple(
        sum(w * e for w, e in zip(action.torus_row(j), total))
        for j in range(action.torus_rank)
    )
    finite = tuple(
        sum(w * e for w, e in zip(action.finite_row(j), total)) % m
        for j, m in enumerate(action.finite_orders)
    )
    return Weight(torus, finite, action.finite_orders)


# --- finite part as a group of diagonal matrices ---------------------------


def _check_group_order(action):
    order = action.group_order
    if order > GROUP_ORDER_GUARD:
        raise ResourceLimitError(
            f"finite group order {order} exceeds the enumeration guard "
            f"{GROUP_ORDER_GUARD}"
        )
    return order


def iter_finite_elements(action):
    """All exponent tuples of the finite part (including the identity)."""
    _check_group_order(action)
    yield from product(*(range(m) for m in action.finite_orders))


def action_vector(action, element):
    """Diagonal action of a finite-part element, as residues mod lcm(orders).

    Coordinate i is scaled by a root of unity of exponent v_i / L; two
    elements act identically iff their vectors agree.
    """
    if not action.finite_orders:
        return (0,) * action.n
    L = lcm(*action.finite_orders)
    vec = [0] * action.n
    for j, (c, m) in enumerate(zip(element, action.finite_orders)):
        step = L // m
        row = action.finite_row(j)
        for i in range(action.n):
            vec[i] = (vec[i] + c * row[i] * step) % L
    return tuple(vec)


def moved_coordinates(action, element):
    vec = action_vector(action, element)
    return tuple(i for i, v in enumerate(vec) if v)


def finite_reflection_elements(action):
    """Finite-part elements acting with exactly one moved coordinate."""
    out = []
    for element in iter_finite_elements(action):
        if len(moved_coordinates(action, element)) == 1:
            out.append(element)
    return out


def finite_part_is_small(action):
    """True when no finite-part element acts as a pseudo-reflection."""
    return not finite_reflection_elements(action)


# --- serialization ----------------------------------------------------------


def action_to_dict(action):
    return {
        "n": action.n,
        "torus_rank": action.torus_rank,
        "finite_orders": list(action.finite_orders),
        "weight_matrix": [list(row) for row in action.weight_matrix],
    }


def action_from_dict(doc):
    try:
        return make_action(
            doc["n"],
            doc.get("torus_rank", 0),
            doc.get("finite_orders", ()),
            doc.get("weight_matrix", ()),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad action document: {exc}") from exc


def dumps_action(action):
    return json.dumps(action_to_dict(action), sort_keys=True, indent=2) + "\n"


def loads_action(text):
    return action_from_dict(json.loads(text))


def load_action(path):
    with open(path, encoding="utf-8") as fh:
        return action_from_dict(json.load(fh))
