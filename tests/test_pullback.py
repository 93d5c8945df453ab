from dataclasses import replace
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from invforms.action import load_action, make_action
from invforms.errors import InternalCheckError
from invforms.forms import PolyForm, wedge
from invforms.invariants import hilbert_basis, monoid_basis, quotient_dimension
from invforms.pieces import Grading
from invforms.pullback import (
    NARROW_BLOCK,
    _wedge_candidates,
    pullback_image,
    surjectivity_check,
    target_generator_bound,
)
from invforms.poly import Polynomial
from oracles import (
    actions,
    brute_weight0_monomials,
    dense_wedge_candidates,
    frac_det,
    frac_rank,
    int_row,
    is_horizontal,
    piecewide_cokernel_table,
    polynomial_matrix_rank,
    wedge_candidates,
    weight_of_form,
    zero_weight,
)

Z2 = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
Z2R = make_action(2, finite_orders=[2], weight_matrix=[[1, 0]])
T = make_action(2, torus_rank=1, weight_matrix=[[1, -1]])
X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)
DX = PolyForm.dx(2, 0)
DY = PolyForm.dx(2, 1)


def test_pullback_image_k1():
    img = pullback_image(Z2, 1, 6)
    got = [str(w) for w in img.wedge_generators]
    assert sorted(got) == sorted(["2*x*dx", "y*dx + x*dy", "2*y*dy"])
    imgt = pullback_image(T, 1, 6)
    assert [str(w) for w in imgt.wedge_generators] == ["y*dx + x*dy"]


def test_pullback_image_k2_contains_listed_wedges():
    img = pullback_image(Z2, 2, 6)
    span = list(img.wedge_generators)
    listed = [
        (2 * X * X) * wedge(DX, DY),
        (4 * X * Y) * wedge(DX, DY),
        (2 * Y * Y) * wedge(DX, DY),
    ]
    # all three listed wedges are scalar multiples of kept generators
    for f in listed:
        assert any(
            f == w or f == (-1) * w or f == 2 * w or f == (-2) * w for w in span
        ) or _in_constant_span(f, span)


def _in_constant_span(f, span):
    from invforms.pieces import form_to_vector, piece_keys
    from invforms.linalg import Echelon

    d = f.total_degrees().pop()
    keys = piece_keys(Z2, f.degree, d, zero_weight(Z2))
    positions = {key: i for i, key in enumerate(keys)}
    ech = Echelon(len(keys))
    for w in span:
        if w.total_degrees() == {d}:
            ech.insert(int_row(form_to_vector(w, positions, len(keys))))
    return ech.insert(int_row(form_to_vector(f, positions, len(keys)))) is None


def test_pullback_image_above_dimension_is_empty():
    assert pullback_image(Z2, 3, 4).wedge_generators == ()


def test_wedge_generators_are_invariant_horizontal():
    for act in [
        Z2,
        T,
        make_action(3, torus_rank=1, weight_matrix=[[1, 1, -2]]),
    ]:
        for k in range(1, act.n + 1):
            img = pullback_image(act, k, 9)  # every wedge of degree-3 generators
            for w in img.wedge_generators:
                assert weight_of_form(act, w).is_zero
                assert is_horizontal(act, w)


def test_surjectivity_a1():
    res = surjectivity_check(Z2, 1, 8)
    assert res.verdict == "not_surjective"
    assert res.witness_degrees == (2,)
    assert res.witness == X * DY - Y * DX
    table = {d: row for d, *row in res.table.rows}
    assert table[2] == [4, 3, 1]
    for d in [0, 1, 3, 4, 5, 6, 7, 8]:
        assert table[d][2] == 0


def test_surjectivity_reflection_is_surjective():
    res = surjectivity_check(Z2R, 1, 8)
    assert res.verdict == "surjective"
    assert res.witness is None


def test_surjectivity_torus():
    res = surjectivity_check(T, 1, 8)
    assert res.verdict == "surjective"


def test_surjectivity_inconclusive_without_certified_basis():
    act = make_action(2, torus_rank=1, weight_matrix=[[1, -5]])
    res = surjectivity_check(act, 1, 4)
    assert res.verdict == "inconclusive"
    assert res.notes


def test_surjectivity_inconclusive_below_target_bound():
    # basis certified at 2, but target generators only certified below
    # degree 3: no cokernel seen, yet no surjectivity claim either
    res = surjectivity_check(Z2R, 1, 2)
    assert res.verdict == "inconclusive"
    assert all(coker == 0 for _, _, _, coker in res.table.rows)
    # a found cokernel is conclusive even below the certificate
    assert surjectivity_check(Z2, 1, 2).verdict == "not_surjective"


@given(actions(max_n=3, max_torus=1))
@example(Z2)
@example(Z2R)
@example(T)
def test_image_never_exceeds_target(act):
    grading = Grading(act)
    for k in range(act.n + 1):
        rows = surjectivity_check(act, k, 6, grading=grading).table.rows
        for _, tdim, idim, coker in rows:
            assert 0 <= idim <= tdim
            assert coker == tdim - idim


@given(actions(4, 2))
def test_plucker_vectors_are_the_wedges(act):
    basis = hilbert_basis(act, 4)
    for k in range(act.n + 1):
        got = _wedge_candidates(act, basis, k)
        want = wedge_candidates(act, basis, k)
        assert [m for m, _ in got] == [m for m, _ in want]
        for (m, vec), (_, w) in zip(got, want):
            terms = [
                (I, tuple(x - (i in I) for i, x in enumerate(m)), c)
                for I, c in zip(combinations(range(act.n), k), vec)
                if c
            ]
            assert terms == list(w.terms())


@given(actions())
@example(make_action(4, finite_orders=[3], weight_matrix=[[1, 1, 2, 2]]))
def test_sparse_wedges_are_the_minors(act):
    """Every candidate is the k x k minors of its subset, by Fraction
    determinants, and the list (points, order, vectors) is the one the
    dense formula, which sums every term of every minor, gives."""
    basis = hilbert_basis(act, 6)
    gens = basis.generators
    for k in range(min(act.n, 3) + 1):
        want = []
        for subset in combinations(gens, k):
            vec = [
                frac_det([[g[i] for g in subset] for i in I])
                for I in combinations(range(act.n), k)
            ]
            if any(vec):
                m = tuple(sum(col) for col in zip(*subset)) if k else (0,) * act.n
                want.append((m, vec))
        got = _wedge_candidates(act, basis, k)
        assert got == want
        assert got == dense_wedge_candidates(act, basis, k)


@given(actions(4, 2), st.integers(0, 12))
@example(make_action(4, finite_orders=[3], weight_matrix=[[1, 1, 2, 2]]), 7)
def test_capped_wedges_are_the_wedges_up_to_the_cap(act, cap):
    basis = hilbert_basis(act, 6)
    degrees = [sum(g) for g in basis.generators]
    assert degrees == sorted(degrees)  # the cap's early exit relies on it
    for k in range(act.n + 1):
        got = _wedge_candidates(act, basis, k, max_degree=cap)
        want = [(m, v) for m, v in _wedge_candidates(act, basis, k) if sum(m) <= cap]
        assert got == want


# witnesses that lie in a later block than the first one with a cokernel
@given(actions(4, 2), st.integers(1, 6))
@example(make_action(3, finite_orders=[4], weight_matrix=[[1, 1, 3]]), 6)
@example(make_action(4, torus_rank=1, weight_matrix=[[3, -2, -1, -1]]), 6)
def test_blocks_match_the_piecewide_route(act, bound):
    grading = Grading(act)
    basis = monoid_basis(grading, bound)
    torus = [act.torus_row(j) for j in range(act.torus_rank)]
    raw = act.weight_matrix, act.torus_rank, act.finite_orders, act.n
    points = [brute_weight0_monomials(*raw, d) for d in range(bound + 1)]
    for k in range(act.n + 1):
        res = surjectivity_check(act, k, bound, grading=grading)
        rows, witness = piecewide_cokernel_table(act, k, bound, basis)
        assert res.table.rows == rows
        assert str(res.witness) == str(witness)
        # each block's target is Λ^k of the annihilator of T restricted to S
        for d, tdim, _, _ in rows:
            closed = 0
            for m in points[d]:
                S = [i for i, x in enumerate(m) if x]
                rank = frac_rank([[row[i] for i in S] for row in torus])
                closed += comb(len(S) - rank, k)
            assert tdim == closed


def test_non_horizontal_image_fails_the_generator_check(
    monkeypatch, spanned, corpus_dir
):
    import invforms.pullback

    # torus [1, -1, 0], Z2 [0, 0, 1]: the blocks at (0, 0, 2j) have the
    # whole of Λ^1 as target, reach their cap and saturate
    act = load_action(corpus_dir / "mix_t1z2.json")
    real = invforms.pullback.pullback_image
    bad = ((1, 1, 2), [1, 0, 0])  # y z^2 dx, not horizontal

    def with_bad_generator(*args, **kwargs):
        img = real(*args, **kwargs)
        blocks = sorted(img.generator_blocks + (bad,), key=lambda b: sum(b[0]))
        return replace(img, generator_blocks=tuple(blocks))

    assert surjectivity_check(act, 1, 6).verdict == "surjective"
    assert (0, 0, 2) in spanned and (0, 0, 4) not in spanned
    spanned.clear()
    monkeypatch.setattr(invforms.pullback, "pullback_image", with_bad_generator)
    with pytest.raises(InternalCheckError, match=r"lattice point \(1, 1, 2\) is not horizontal"):
        surjectivity_check(act, 1, 6)
    # each generator is checked once, before any block is spanned
    assert spanned == []


def test_target_generator_bound_finite():
    basis = hilbert_basis(Z2, 6)
    assert target_generator_bound(Z2, 1, basis) == 3  # group order + k


def torsion_free_rank(act, k):
    """Generic rank of the pullback image: the rank of its wedge
    generators over the rational function field, which must be C(dim Y, k)."""
    img = pullback_image(act, k, 6)
    zero = Polynomial.zero(act.n)
    rows = [
        [w.components.get(I, zero) for I in combinations(range(act.n), k)]
        for w in img.wedge_generators
    ]
    rank = polynomial_matrix_rank(rows)
    assert rank == comb(quotient_dimension(act), k)
    return rank


def test_torsion_free_rank():
    assert torsion_free_rank(Z2, 1) == 2
    assert torsion_free_rank(T, 1) == 1
    assert torsion_free_rank(T, 2) == 0
    assert torsion_free_rank(Z2, 5) == 0
    assert torsion_free_rank(Z2, 0) == 1
    act = make_action(3, torus_rank=1, weight_matrix=[[1, 1, -2]])
    assert torsion_free_rank(act, 1) == 2
    assert torsion_free_rank(act, 2) == 1


def test_pullback_image_keeps_every_nonzero_wedge(corpus_dir):
    """The image lists every nonzero wedge up to the bound, dependent
    ones included, by degree and then in subset order; only the blocks
    they are lifted to reduce them."""
    from invforms.report import default_bound

    act = load_action(corpus_dir / "z3_111.json")
    bound = default_bound(act)
    basis = monoid_basis(Grading(act), bound)
    counts = []
    for k in (1, 2, 3):
        want = sorted(
            _wedge_candidates(act, basis, k, max_degree=bound),
            key=lambda b: sum(b[0]),
        )
        assert list(pullback_image(act, k, bound).generator_blocks) == want
        counts.append(len(want))
    assert counts == [10, 45, 105]


def _checks(act, bound):
    """(verdict, witness degrees, str(witness), table rows) of
    `surjectivity_check` for k = 1..dim Y, on one grading."""
    grading = Grading(act)
    return [
        (res.verdict, res.witness_degrees, str(res.witness), res.table.rows)
        for res in (
            surjectivity_check(act, k, bound, grading=grading)
            for k in range(1, quotient_dimension(act, grading) + 1)
        )
    ]


def _with_and_without_orbits(act, bound):
    """`_checks` spanning one point per orbit at every block width, and
    with the symmetry group forced trivial, so every point is spanned;
    also whether the group is nontrivial."""
    import invforms.pullback

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invforms.pullback, "NARROW_BLOCK", 0)
        orbits = _checks(act, bound)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Grading, "symmetry", lambda self: (tuple(range(act.n)),))
        points = _checks(act, bound)
    grading = Grading(act)
    monoid_basis(grading, bound)
    return orbits, points, len(grading.symmetry()) > 1


def test_orbits_give_the_pointwise_checks_on_the_corpus(corpus_dir):
    symmetric = 0
    for path in sorted(corpus_dir.glob("*.json")):
        act = load_action(path)
        orbits, points, nontrivial = _with_and_without_orbits(act, 12)
        assert orbits == points, path.stem
        symmetric += nontrivial
    assert symmetric == 24


@given(actions(max_n=5))
@example(make_action(5, finite_orders=[3], weight_matrix=[[1, 1, 2, 2, 0]]))
@example(make_action(4, torus_rank=1, weight_matrix=[[1, 1, -1, -1]]))
# |Sym| = 72, with witnesses at k = 2..5
@example(make_action(6, torus_rank=1, weight_matrix=[[1, 1, 1, -1, -1, -1]]))
# |Sym| = 12, with witnesses at every k
@example(
    make_action(
        6, finite_orders=[3, 3], weight_matrix=[[1, 1, 1, 2, 2, 2], [1, 2, 0, 1, 2, 0]]
    )
)
def test_orbits_give_the_pointwise_checks(act):
    orbits, points, _ = _with_and_without_orbits(act, 7)
    assert orbits == points


@pytest.mark.parametrize(
    "act, bound",
    [
        (make_action(5, finite_orders=[3], weight_matrix=[[1, 1, 2, 2, 0]]), 7),
        (make_action(6, torus_rank=1, weight_matrix=[[1, 1, 1, -1, -1, -1]]), 8),
    ],
)
def test_orbits_span_the_open_representatives(spanned, act, bound):
    """With orbits, the points spanned are the orbit representatives
    among those a pointwise sweep spans: a capped representative caps
    its whole orbit, so no later representative that dominates an
    orbit point of its support is spanned again."""
    for k in range(1, quotient_dimension(act) + 1):
        if comb(act.n, k) <= NARROW_BLOCK:
            continue
        grading = Grading(act)
        monoid_basis(grading, bound)
        spanned.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Grading, "symmetry", lambda self: (tuple(range(act.n)),))
            surjectivity_check(act, k, bound)
        pointwise = set(spanned)
        spanned.clear()
        surjectivity_check(act, k, bound, grading=grading)
        reps = {m for d in range(bound + 1) for m, _, _ in grading.orbit_blocks(k, d)}
        assert len(grading.symmetry()) > 1
        assert spanned == sorted(spanned, key=lambda m: (sum(m), m))
        assert set(spanned) == pointwise & reps, k
