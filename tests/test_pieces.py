from fractions import Fraction
from itertools import combinations, product
from math import comb
from operator import add, le
from time import perf_counter

import pytest
from hypothesis import assume, example, given, strategies as st

from invforms.action import Weight, load_action, make_action
from invforms.errors import ResourceLimitError
from invforms.euler import homology_all_weights, horizontal_block, torus_rows
from invforms.invariants import invariant_form_generators, monoid_basis
from invforms.pieces import (
    KEY_WIDTH,
    BlockModule,
    Grading,
    block_form,
    exterior_basis,
    form_to_vector,
    monomials_of_degree,
    monomials_with_weight,
    pack,
    piece_keys,
    support,
)
from invforms.forms import PolyForm
from invforms.poly import Polynomial
from invforms.pullback import pullback_image
from invforms.report import default_bound
from oracles import (
    actions,
    block_span,
    brute_monomials_by_weight,
    brute_pieces,
    brute_weight0_monomials,
    frac_rank,
    monoid_symmetries,
    zero_weight,
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


def test_form_to_vector_rows_go_straight_to_an_echelon():
    from invforms.linalg import Echelon

    keys = piece_keys(Z2, 1, 2, zero_weight(Z2))
    positions = {key: j for j, key in enumerate(keys)}
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    forms = [
        PolyForm(2, 1, {(0,): x, (1,): y}),
        PolyForm(2, 1, {(0,): y * 3, (1,): x * -2}),
        PolyForm(2, 1, {(0,): x * 2, (1,): y * 2}),
    ]
    ech = Echelon(len(keys))
    got = []
    for f in forms:
        row = form_to_vector(f, positions, len(keys))
        assert all(type(c) is int for c in row)
        got.append(ech.insert(row))
    assert got[2] is None and ech.rank == 2
    # a coefficient that is not integral stays a Fraction
    half = PolyForm(2, 1, {(0,): x * Fraction(1, 2)})
    assert Fraction(1, 2) in form_to_vector(half, positions, len(keys))


# -- coordinate symmetries ---------------------------------------------------


@given(actions(max_n=5))
@example(make_action(5, finite_orders=[3], weight_matrix=[[1, 1, 2, 2, 0]]))
@example(make_action(4, torus_rank=1, weight_matrix=[[1, 1, -1, -1]]))
@example(make_action(3, finite_orders=[3], weight_matrix=[[1, 1, 1]]))
def test_symmetry_is_the_group_of_the_monoid_and_its_rays(act):
    """Every member of `Grading.symmetry` maps the weight-zero points of
    each degree up to the scan's bound onto themselves, and every
    permutation that does so and permutes the rays is a member."""
    bound = 6
    grading = Grading(act)
    monoid_basis(grading, bound)
    got = grading.symmetry()
    assert got[0] == tuple(range(act.n))
    assert len(set(got)) == len(got)
    want = monoid_symmetries(
        act.weight_matrix, act.torus_rank, act.finite_orders, act.n, bound,
        grading.rays,
    )
    assert set(got) == want


def test_orbits_partition_the_points_with_their_least_first():
    act = make_action(5, finite_orders=[3], weight_matrix=[[1, 1, 2, 2, 0]])
    grading = Grading(act)
    monoid_basis(grading, 7)
    sym = grading.symmetry()
    assert len(sym) == 8
    total = 0
    for d in range(8):
        points = grading.weight_zero(d)
        order = {m: j for j, (m, _) in enumerate(points)}
        reps = grading.orbit_blocks(0, d)
        covered = []
        for m, s, key in reps:
            members = grading.orbit[m]
            assert members[0] == (key, m, s)
            images = set()
            for p in sym:
                image = [0] * act.n
                for i, x in zip(p, m):
                    image[i] = x
                images.add(tuple(image))
            assert sorted(q for _, q, _ in members) == sorted(images)
            for q_key, q, t in members:
                assert q_key == pack(q) and t == support(q)
                assert order[q] >= order[m]
            covered.extend(q_key for q_key, _, _ in members)
        assert sorted(covered) == sorted(grading.weight_zero_keys(d))
        assert grading.orbit_blocks(2, d) == [r for r in reps if len(r[1]) >= 2]
        total += len(reps)
    # 264 weight-zero points up to degree 7 in 65 orbits
    assert total == 65


# -- packed keys and block modules-----------------------------------------


def test_packed_keys_agree_with_tuples():
    top = (1 << (KEY_WIDTH - 1)) - 1  # the largest coordinate a field holds
    act = make_action(2, torus_rank=1, weight_matrix=[[1, 0]])
    grading = Grading(act)
    guard = grading.guard
    points = list(product((0, 1, top - 1, top), repeat=2))
    for p, m in product(points, repeat=2):
        below = ((pack(m) | guard) - pack(p)) & guard == guard
        assert below == all(map(le, p, m))
        total = tuple(map(add, p, m))
        if max(total) <= top:
            assert pack(p) + pack(m) == pack(total)
    # the weight-zero points x_1^d: x_1^top fills the lowest field, the
    # largest value a field holds below its guard bit
    assert grading.weight_zero(top) == [((0, top), (1,))]
    assert grading.weight_zero_keys(top) == [pack((0, top))]
    with pytest.raises(ResourceLimitError, match="packed"):
        grading.weight_zero(top + 1)


def _scanned_past_the_certificate(act, bound):
    """A grading scanned at `bound` and a fresh one walked to it agree
    at every degree on the points, their supports, their order and
    their keys; a point is a basis element exactly when no other basis
    element lies below it."""
    scanned = Grading(act)
    basis = monoid_basis(scanned, bound)
    walked = Grading(act)
    for d in range(bound + 1):
        assert scanned.weight_zero(d) == walked.weight_zero(d), d
        assert scanned.weight_zero_keys(d) == walked.weight_zero_keys(d), d
        for m, _ in walked.weight_zero(d) if d else ():
            below = any(g != m and all(map(le, g, m)) for g in basis.generators)
            assert (m in basis.generators) != below, m


@given(actions(max_n=5))
@example(make_action(5, finite_orders=[3], weight_matrix=[[1, 1, 2, 2, 0]]))
@example(
    make_action(
        6, finite_orders=[3, 3], weight_matrix=[[1, 1, 1, 2, 2, 2], [1, 2, 0, 1, 2, 0]]
    )
)
@example(make_action(4, torus_rank=1, weight_matrix=[[1, 1, -1, -1]]))
def test_sums_past_the_certificate_bound_match_the_walk(act):
    """Above the certificate bound the scan lists each degree from sums
    of the Hilbert basis.  Three degrees past it; an action whose bound
    is past 24 would make the fresh walk slow and is left out."""
    bound = Grading(act).certificate_bound() + 3
    assume(bound <= 27)
    _scanned_past_the_certificate(act, bound)


def test_sums_on_the_corpus_match_the_walk(corpus_dir):
    # every spec's certificate bound lies below its default bound
    for path in sorted(corpus_dir.glob("*.json")):
        act = load_action(path)
        _scanned_past_the_certificate(act, default_bound(act))


@given(actions(max_n=5))
@example(make_action(5, finite_orders=[3], weight_matrix=[[1, 1, 2, 2, 0]]))
def test_keys_ascend_in_point_order(act):
    """Walked or listed from sums, the keys of a degree ascend and are
    the packed keys of its points."""
    grading = Grading(act)
    bound = min(grading.certificate_bound() + 3, 12)
    monoid_basis(grading, bound)
    for d in range(bound + 1):
        keys = grading.weight_zero_keys(d)
        assert keys == sorted(set(keys))
        assert keys == [pack(m) for m, _ in grading.weight_zero(d)]


def test_bound_past_the_packed_limit_fails_before_walking(corpus_dir):
    from invforms.report import run_analysis

    act = load_action(corpus_dir / "z2_10.json")
    torus = load_action(corpus_dir / "t_11m1.json")
    # checked against the bound up front, not when the walk reaches 2^15,
    # and before the homology lists the monomials of its degree
    for sweep in (
        lambda: run_analysis(act, max_degree=40000),
        lambda: invariant_form_generators(act, 1, True, 40000),
        lambda: homology_all_weights(torus, 40000),
    ):
        start = perf_counter()
        with pytest.raises(ResourceLimitError, match="packed"):
            sweep()
        assert perf_counter() - start < 1


def _module_matches_scan(act, k, bound):
    """At every block point of degree <= bound, in `zero_blocks` order,
    a BlockModule's echelon at an open point is the one a scan over
    every generator spans, and at a saturated point that scan reaches
    the cap."""
    grading = Grading(act)
    families = [
        pullback_image(act, k, bound, grading=grading).generator_blocks,
        invariant_form_generators(act, k, True, bound, grading).generator_blocks,
    ]
    ncols = comb(act.n, k)
    for gens in families:
        module = BlockModule(grading, k, lambda s: comb(len(s), k), gens)
        for d in range(bound + 1):
            got = module.blocks(d)
            assert [(m, s) for m, s, _ in got] == [
                (m, s) for m, s, _ in grading.zero_blocks(k, d)
            ]
            for m, s, ech in got:
                full = comb(len(s), k)
                want = block_span(gens, m, ncols, full)
                if ech is None:
                    assert want.rank == full
                else:
                    assert ech.rows == want.rows


@given(actions(), st.integers(0, 4))
@example(make_action(3, finite_orders=[3], weight_matrix=[[1, 1, 1]]), 1)
@example(
    make_action(4, torus_rank=2, weight_matrix=[[1, -1, 0, 1], [0, 1, -1, -1]]), 2
)
def test_lift_matches_the_generator_scan(act, k):
    if k <= act.n:
        _module_matches_scan(act, k, 6)


def test_blocks_never_insert_past_the_cap(monkeypatch, corpus_dir):
    """Blocks are the only place wedges are reduced, and a block stops
    taking generators once its rank reaches its cap: every insert into an
    echelon a module hands out finds it below cap(supp m)."""
    from invforms.linalg import Echelon

    bound = 6
    insert = Echelon.insert
    ranks = {}  # id(echelon): its rank before each insert
    alive = []  # the echelons inserted into, so no id is reused

    def recorded(self, row):
        ranks.setdefault(id(self), []).append(self.rank)
        alive.append(self)
        return insert(self, row)

    monkeypatch.setattr(Echelon, "insert", recorded)
    n5_z3 = make_action(5, finite_orders=[3], weight_matrix=[[1, 1, 2, 2, 0]])
    actions = [load_action(p) for p in sorted(corpus_dir.glob("*.json"))]
    checked = 0
    for act in [*actions, n5_z3]:
        rows = torus_rows(act)
        for k in range(act.n + 1):
            cap = lambda s: len(horizontal_block(act.n, k, s, rows))  # noqa: E731
            for orbits in (False, True):
                grading = Grading(act)
                monoid_basis(grading, bound)
                gens = pullback_image(act, k, bound, grading=grading).generator_blocks
                module = BlockModule(grading, k, cap, gens, orbits=orbits)
                for d in range(bound + 1):
                    ranks.clear()
                    for m, s, ech in module.blocks(d):
                        if ech is not None:
                            got = ranks.get(id(ech), ())
                            assert all(r < cap(s) for r in got), (act, k, m)
                            checked += len(got)
    assert checked > 0
