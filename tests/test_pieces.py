from fractions import Fraction
from itertools import combinations
from math import comb

from hypothesis import example, given, strategies as st

from invforms.action import Weight, load_action, make_action, zero_weight
from invforms.pieces import (
    Grading,
    block_form,
    block_span,
    exterior_basis,
    monomials_of_degree,
    monomials_with_weight,
    piece_keys,
    support,
)
from invforms.forms import PolyForm
from invforms.poly import Polynomial
from oracles import (
    actions,
    brute_monomials_by_weight,
    brute_pieces,
    brute_weight0_monomials,
    frac_rank,
)

Z2 = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])


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


def _assert_weight_zero_is_the_zero_bucket(act):
    grading = Grading(act)
    w0 = zero_weight(act)
    assert grading.weight_zero(-1) == []
    for d in range(11):
        want = grading.buckets(d).get(w0, [])
        got = grading.weight_zero(d)
        assert [m for m, _ in got] == want
        assert [s for _, s in got] == [support(m) for m in want]


@given(actions())
@example(make_action(4, torus_rank=2, weight_matrix=[[-3, 1, -3, 2], [2, 0, -3, 1]]))
@example(make_action(3, finite_orders=[4, 6], weight_matrix=[[1, 2, 3], [1, 0, 5]]))
def test_weight_zero_points_are_the_zero_bucket(act):
    _assert_weight_zero_is_the_zero_bucket(act)


def test_weight_zero_points_on_the_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.json")):
        _assert_weight_zero_is_the_zero_bucket(load_action(path))


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


# -- lattice-point enumeration against brute force ----------------------------


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
        got = list(grading.buckets(d))
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


# -- lattice-point blocks against polynomial products ------------------------


@st.composite
def block_forms(draw, n, k):
    """(m, block vector, form) at one lattice point m: the form is the
    sum of c_I x^(m - e_I) dx_I, built term by term."""
    m = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    supp = [i for i, x in enumerate(m) if x]
    vec = [0] * comb(n, k)
    form = PolyForm.zero(n, k)
    for I in combinations(supp, k):
        c = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2)))
        vec[exterior_basis(n, k).index(I)] = c
        exps = tuple(x - (i in I) for i, x in enumerate(m))
        form = form + PolyForm.monomial_form(n, exps, I, c)
    return m, vec, form


@given(st.data())
def test_block_span_matches_polynomial_products(data):
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, n))
    drawn = [
        b for b in data.draw(st.lists(block_forms(n, k), min_size=1, max_size=4))
        if not b[2].is_zero
    ]
    m = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    blocks = [(point, vec) for point, vec, _ in drawn]
    gens = [g for _, _, g in drawn]
    for g, (point, vec) in zip(gens, blocks):
        assert block_form(n, k, point, vec) == g
    got = block_span(blocks, m, comb(n, k), comb(n, k)).rank
    # the products x^e g that land at m, in their own terms
    products = []
    for g, (point, _) in zip(gens, blocks):
        e = [a - b for a, b in zip(m, point)]
        if min(e) >= 0:
            prod = g * Polynomial.monomial(n, e)
            products.append({(I, exps): c for I, exps, c in prod.terms()})
    keys = sorted(set().union(*products))
    assert got == frac_rank([[p.get(key, 0) for key in keys] for p in products])
