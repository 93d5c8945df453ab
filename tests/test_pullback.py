from dataclasses import replace
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from invforms.action import load_action, make_action, weight_of_form
from invforms.errors import InternalCheckError
from invforms.euler import is_horizontal
from invforms.forms import PolyForm, wedge
from invforms.invariants import hilbert_basis, quotient_dimension
from invforms.pieces import Grading
from invforms.pullback import (
    _wedge_candidates,
    pullback_image,
    surjectivity_check,
    target_generator_bound,
)
from invforms.poly import Polynomial
from oracles import (
    actions,
    brute_weight0_monomials,
    frac_rank,
    piecewide_cokernel_table,
    polynomial_matrix_rank,
    wedge_candidates,
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
    assert img.certified
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
    from invforms.action import zero_weight

    d = f.total_degrees().pop()
    keys = piece_keys(Z2, f.degree, d, zero_weight(Z2))
    positions = {key: i for i, key in enumerate(keys)}
    ech = Echelon(len(keys))
    for w in span:
        if w.total_degrees() == {d}:
            ech.insert(form_to_vector(w, positions, len(keys)))
    return ech.contains(form_to_vector(f, positions, len(keys)))


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
    basis = hilbert_basis(act, bound, grading)
    torus = [act.torus_row(j) for j in range(act.torus_rank)]
    raw = act.weight_matrix, act.torus_rank, act.finite_orders, act.n
    points = [brute_weight0_monomials(*raw, d) for d in range(bound + 1)]
    for k in range(act.n + 1):
        res = surjectivity_check(act, k, bound, basis=basis, grading=grading)
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


def test_non_horizontal_image_fails_the_block_check(monkeypatch, corpus_dir):
    import invforms.pullback

    # torus [1, -1, 0], Z2 [0, 0, 1]: the blocks at (0, 0, 2j) have the
    # whole of Λ^1 as target, reach their cap and saturate
    act = load_action(corpus_dir / "mix_t1z2.json")
    real = invforms.pullback.pullback_image
    bad = ((1, 1, 2), [1, 0, 0])  # y z^2 dx, not horizontal

    def with_bad_generator(*args, **kwargs):
        img = real(*args, **kwargs)
        blocks = sorted(img.generator_blocks + (bad,), key=lambda b: sum(b[0]))
        return replace(
            img,
            generator_blocks=tuple(blocks),
            generator_degrees=tuple(sum(m) for m, _ in blocks),
        )

    spanned = []
    block_span = invforms.pullback.block_span

    def recorded(gens, m, ncols, full):
        spanned.append(m)
        return block_span(gens, m, ncols, full)

    monkeypatch.setattr(invforms.pullback, "block_span", recorded)
    assert surjectivity_check(act, 1, 6).verdict == "surjective"
    assert (0, 0, 2) in spanned and (0, 0, 4) not in spanned
    spanned.clear()
    monkeypatch.setattr(invforms.pullback, "pullback_image", with_bad_generator)
    with pytest.raises(InternalCheckError, match=r"degree 4 at lattice point \(1, 1, 2\)"):
        surjectivity_check(act, 1, 6)
    assert spanned[-1] == (1, 1, 2) and (0, 0, 4) not in spanned


def test_target_generator_bound_finite():
    basis = hilbert_basis(Z2, 6)
    assert target_generator_bound(Z2, 1, basis) == 3  # group order + k


def torsion_free_rank(act, k):
    """Generic rank of the pullback image: the rank of its wedge
    generators over the rational function field, which must be C(dim Y, k)."""
    img = pullback_image(act, k, 6)
    assert img.certified
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
