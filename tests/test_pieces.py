from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from invforms.action import (
    Weight,
    make_action,
    weight_of_exponents,
    weight_of_form,
    zero_weight,
)
from invforms.errors import InhomogeneityError, StructuralError
from invforms.euler import occurring_weights
from invforms.pieces import (
    Grading,
    form_to_vector,
    graded_piece_basis,
    homogeneous_data,
    monomials_of_degree,
    monomials_with_weight,
    piece_keys,
    shifted_rows,
)
from invforms.forms import PolyForm
from invforms.poly import Polynomial
from oracles import (
    brute_monomials_by_weight,
    brute_pieces,
    brute_weight0_monomials,
)

Z2 = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
TRIV = make_action(2)
X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)
DX = PolyForm.dx(2, 0)
DY = PolyForm.dx(2, 1)


def test_monomials_of_degree():
    assert monomials_of_degree(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert monomials_of_degree(1, 3) == [(3,)]
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]
    assert monomials_of_degree(2, -1) == []
    assert len(monomials_of_degree(3, 5)) == 21


def test_weight0_enumeration_matches_oracle():
    actions = [
        Z2,
        make_action(2, torus_rank=1, weight_matrix=[[1, -1]]),
        make_action(
            3, torus_rank=1, finite_orders=[3],
            weight_matrix=[[1, 1, -2], [1, 2, 0]],
        ),
    ]
    for act in actions:
        for d in range(7):
            got = monomials_with_weight(act, d, zero_weight(act))
            want = brute_weight0_monomials(
                act.weight_matrix, act.torus_rank, act.finite_orders, act.n, d
            )
            assert got == want


def test_piece_keys_order_and_content():
    keys = piece_keys(Z2, 1, 2, zero_weight(Z2))
    assert keys == [
        ((0,), (0, 1)),
        ((0,), (1, 0)),
        ((1,), (0, 1)),
        ((1,), (1, 0)),
    ]
    assert piece_keys(Z2, 1, 0, zero_weight(Z2)) == []
    assert piece_keys(Z2, 3, 5, zero_weight(Z2)) == []


def test_graded_piece_basis_full_piece():
    basis = graded_piece_basis([DX, DY], 1, zero_weight(TRIV), TRIV)
    assert len(basis) == 2
    for f in basis:
        assert f.degree == 1
        assert f.total_degrees() == {1}


def test_graded_piece_basis_derived_example():
    gens = [
        PolyForm.from_poly(X * X).d(),
        PolyForm.from_poly(X * Y).d(),
        PolyForm.from_poly(Y * Y).d(),
    ]
    basis = graded_piece_basis(gens, 2, zero_weight(Z2), Z2)
    assert len(basis) == 3
    for f in basis:
        assert weight_of_form(Z2, f).is_zero
        assert f.total_degrees() == {2}


def test_graded_piece_basis_below_form_degree_is_empty():
    assert graded_piece_basis([DX], 0, zero_weight(TRIV), TRIV) == []


def test_graded_piece_basis_rejects_inhomogeneous():
    with pytest.raises(InhomogeneityError):
        graded_piece_basis([DX + X * DX], 2, zero_weight(TRIV), TRIV)


def test_graded_piece_basis_membership():
    # pieces of the span of d(xy) over the polynomial ring
    gens = [PolyForm.from_poly(X * Y).d()]
    basis = graded_piece_basis(gens, 3, zero_weight(TRIV), TRIV)
    # degree-3 piece: x d(xy), y d(xy)
    assert len(basis) == 2


# -- lattice-point enumeration against brute force ----------------------------

WEIGHTS = st.integers(-3, 3)


@st.composite
def actions(draw):
    """Small random actions: n <= 4, torus rank <= 2, finite orders <= 6."""
    n = draw(st.integers(1, 4))
    s = draw(st.integers(0, 2))
    orders = draw(st.lists(st.integers(2, 6), max_size=2))
    row = st.lists(WEIGHTS, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=s + len(orders), max_size=s + len(orders)))
    return make_action(n, s, orders, rows)


@st.composite
def monomial_forms(draw, n, k):
    I = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))))
    exps = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    c = Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.integers(1, 2)))
    return PolyForm.monomial_form(n, exps, I, c)


def _raw(act):
    return act.weight_matrix, act.torus_rank, act.finite_orders


def _weight(act, raw):
    torus, finite = raw
    return Weight(torus, finite, act.finite_orders)


@given(actions())
def test_pieces_match_brute_force(act):
    grading = Grading(act)
    for d in range(7):
        monos = brute_monomials_by_weight(*_raw(act), act.n, d)
        tables = [brute_pieces(*_raw(act), act.n, k, d) for k in range(act.n + 1)]
        form_weights = set().union(*tables)
        got = occurring_weights(act, d, grading)
        assert [(w.torus, w.finite) for w in got] == sorted(form_weights)
        for raw in form_weights:
            w = _weight(act, raw)
            assert monomials_with_weight(act, d, w, grading) == monos.get(raw, [])
            for k, table in enumerate(tables):
                assert piece_keys(act, k, d, w, grading) == table.get(raw, [])
        if act.torus_rank:
            absent = Weight((99,) * act.torus_rank, (0,) * act.t, act.finite_orders)
            assert monomials_with_weight(act, d, absent, grading) == []
            assert piece_keys(act, 0, d, absent, grading) == []


@given(st.data())
def test_shifted_rows_match_polynomial_products(data):
    act = data.draw(actions())
    n = act.n
    k = data.draw(st.integers(0, n))
    gens = data.draw(st.lists(monomial_forms(n, k), min_size=1, max_size=3))
    # the first generator times this monomial lies in the chosen piece
    e0 = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    shifts = [homogeneous_data(act, g)[1:] + (list(g.terms()),) for g in gens]
    degree = shifts[0][0] + sum(e0)
    weight = shifts[0][1] + weight_of_exponents(act, e0)
    grading = Grading(act)
    keys = piece_keys(act, k, degree, weight, grading)
    positions = {key: i for i, key in enumerate(keys)}

    got = list(shifted_rows(act, shifts, degree, weight, positions, grading))
    want = []
    for g, (dg, wg, _) in zip(gens, shifts):
        rest = weight - wg
        monos = brute_monomials_by_weight(*_raw(act), n, degree - dg)
        for e in monos.get((rest.torus, rest.finite), []):
            scaled = g * Polynomial.monomial(n, e)
            want.append(form_to_vector(scaled, positions, len(keys)))
    assert got == want
    assert got


def test_shifted_rows_reject_terms_outside_the_piece():
    grading = Grading(TRIV)
    positions = {((0,), (1, 0)): 0}  # x dx only; y dx is missing
    shifts = [(1, zero_weight(TRIV), list(DX.terms()))]
    with pytest.raises(StructuralError):
        list(shifted_rows(TRIV, shifts, 2, zero_weight(TRIV), positions, grading))
