"""Hermite forms: one canonical basis per lattice."""

from hypothesis import example, given, strategies as st

from invforms.cones import hnf_rows
from oracles import frac_rank


@st.composite
def lattices(draw):
    """(rows, unimodular image of rows, ncols): the image is a row
    permutation followed by row negations and additions of multiples."""
    ncols = draw(st.integers(1, 4))
    row = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    other = [list(r) for r in draw(st.permutations(rows))]
    ops = st.tuples(
        st.integers(0, len(rows) - 1),
        st.integers(0, len(rows) - 1),
        st.integers(-3, 3),
    )
    for i, j, c in draw(st.lists(ops, max_size=6)):
        if i == j:
            other[i] = [-x for x in other[i]]
        else:
            other[j] = [a + c * b for a, b in zip(other[j], other[i])]
    return rows, other, ncols


def _reduces_to_zero(row, basis, pivots):
    """Whether row is an integer combination of the echelon basis."""
    row = list(row)
    for b, c in zip(basis, pivots):
        q, r = divmod(row[c], b[c])
        if r:
            return False
        row = [x - q * y for x, y in zip(row, b)]
    return not any(row)


# the free monoid basis of the torus action [-3, 1, -1, -3]: reducing
# by a later pivot row first leaves -3 above pivot 3
FREE = [[1, 3, 0, 0], [0, 1, 1, 0], [0, 3, 0, 1]]


@given(lattices())
@example((FREE, FREE[::-1], 4))
def test_hnf_is_canonical(case):
    rows, other, ncols = case
    basis, pivots = hnf_rows(rows, ncols)
    assert hnf_rows(other, ncols) == (basis, pivots)
    assert len(basis) == frac_rank(rows)
    for idx, c in enumerate(pivots):
        p = basis[idx][c]
        assert p > 0
        assert all(not basis[j][c] for j in range(idx + 1, len(basis)))
        assert all(0 <= basis[j][c] < p for j in range(idx))
    assert all(_reduces_to_zero(r, basis, pivots) for r in rows)
