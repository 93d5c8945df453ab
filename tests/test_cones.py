"""Hermite forms: one canonical basis per lattice; the extremal rays
of the monoid's cone: dim Y, its support and its freeness."""

from hypothesis import assume, example, given, strategies as st

from invforms.action import make_action
from invforms.cones import hnf_rows
from invforms.invariants import monoid_basis, quotient_dimension
from invforms.pieces import Grading, support
from invforms.smoothness import monoid_smooth
from oracles import actions, frac_rank, monoid_is_free


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


def _certified(act):
    """(grading, certificate bound, whole Hilbert basis), for actions
    whose scan to the certificate bound is quick."""
    grading = Grading(act)
    cert = max(grading.certificate_bound(), 1)
    assume(cert <= 40)
    return grading, cert, monoid_basis(grading, cert).generators


@given(actions())
@example(make_action(2, torus_rank=1, weight_matrix=[[1, 1]]))  # zero cone
@example(make_action(3, torus_rank=1, weight_matrix=[[1, 1, 0]]))
def test_rays_give_the_rank_and_support_of_the_hilbert_basis(act):
    grading, _, basis = _certified(act)
    rays = [tuple(g) for g in grading.rays]
    # the least lattice point on an extremal ray is irreducible
    assert set(rays) <= set(basis)
    assert quotient_dimension(act, grading) == frac_rank(rays) == frac_rank(basis)
    used = {i for g in basis for i in support(g)}
    assert {i for g in rays for i in support(g)} == used


@given(actions())
# free: the Hilbert basis [1, 3, 0, 0], [0, 1, 1, 0], [0, 3, 0, 1]
@example(make_action(4, torus_rank=1, weight_matrix=[[-3, 1, -1, -3]]))
# Z3 by [1, 1, 1]: three rays, but a lattice basis needs (1, 1, 1)
@example(make_action(3, finite_orders=[3], weight_matrix=[[1, 1, 1]]))
def test_freeness_from_rays_matches_the_monoid_route(act):
    grading, cert, _ = _certified(act)
    free = monoid_is_free(
        grading.rays, act.weight_matrix, act.torus_rank, act.finite_orders
    )
    assert monoid_smooth(act, cert, grading) == ("smooth" if free else "singular")
