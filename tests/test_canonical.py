from hypothesis import assume, example, given

from invforms.action import make_action
from invforms.canonical import (
    canonical_comparison,
    canonical_invariants,
    toric_canonical_series,
    torus_part_strongly_stable,
)
from invforms.forms import PolyForm, wedge
from invforms.cones import facet_normals
from invforms.invariants import (
    certified_basis,
    hilbert_series_of,
    invariant_ring_series,
)
from invforms.pieces import Grading
from invforms.poly import Polynomial
from invforms.pullback import surjectivity_check
from oracles import actions, brute_weight0_monomials, in_relative_interior

Z2 = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
Z3 = make_action(2, finite_orders=[3], weight_matrix=[[1, 1]])
Z2R = make_action(2, finite_orders=[2], weight_matrix=[[1, 0]])
T = make_action(2, torus_rank=1, weight_matrix=[[1, -1]])
X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


def test_canonical_invariants_examples():
    sub = canonical_invariants(Z2, 6)
    assert len(sub.generators) == 1
    assert sub.generators[0] == wedge(PolyForm.dx(2, 0), PolyForm.dx(2, 1))
    sub3 = canonical_invariants(Z3, 6)
    assert {str(f) for f in sub3.generators} == {"x*dx∧dy", "y*dx∧dy"}
    subt = canonical_invariants(T, 6)
    assert len(subt.generators) == 1
    assert subt.generators[0] == Y * PolyForm.dx(2, 0) + X * PolyForm.dx(2, 1)


def test_canonical_free_rank_one_on_smooth_instances():
    # smooth: the canonical module series is the invariant-ring series
    # shifted by the generator degree
    for act in [Z2R, T]:
        sub = canonical_invariants(act, 8)
        assert len(sub.generators) == 1
        shift = sub.generator_degrees[0]
        series = hilbert_series_of(sub, act, 8)
        ring = invariant_ring_series(act, 8)
        for d in range(8 + 1):
            expected = ring[d - shift] if d >= shift else 0
            assert series[d] == expected


def test_toric_canonical_series_examples():
    assert toric_canonical_series(Z2, 4).coefficients == (0, 0, 1, 0, 3)
    assert toric_canonical_series(Z2R, 3).coefficients == (0, 0, 0, 1)
    assert toric_canonical_series(T, 4).coefficients == (0, 0, 1, 0, 1)


@given(actions())
@example(make_action(2, torus_rank=1, weight_matrix=[[1, 1]]))  # zero cone
@example(make_action(3, torus_rank=1, weight_matrix=[[1, 1, 0]]))  # x, y vanish
def test_interior_by_support_matches_facets(act):
    grading = Grading(act)
    # the certified scan and the facets of a larger bound take seconds
    assume(grading.certificate_bound() <= 100)
    normals = facet_normals(certified_basis(grading).generators)
    raw = act.weight_matrix, act.torus_rank, act.finite_orders, act.n
    want = tuple(
        sum(
            in_relative_interior(m, normals)
            for m in brute_weight0_monomials(*raw, d)
        )
        for d in range(9)
    )
    assert toric_canonical_series(act, 8, grading).coefficients == want


def _certified_match(act, truncation):
    doc = canonical_comparison(act, truncation)
    return doc["identification_certified"] and doc["match"]


def test_canonical_series_examples_agree():
    assert _certified_match(Z2, 6)
    assert _certified_match(Z3, 6)
    assert _certified_match(T, 4)


def test_canonical_series_names_reflections():
    doc = canonical_comparison(Z2R, 6)
    assert not doc["identification_certified"]
    assert "(1,)" in doc["caveat"]


def test_canonical_series_torus_stability_precondition():
    act = make_action(2, torus_rank=1, weight_matrix=[[1, 1]])
    assert not torus_part_strongly_stable(act)
    doc = canonical_comparison(act, 4)
    assert not doc["identification_certified"]
    assert doc["caveat"] == "torus part not strongly stable"
    assert torus_part_strongly_stable(T)


def test_canonical_comparison_report_only():
    doc = canonical_comparison(Z2R, 6)
    assert not doc["identification_certified"]
    assert "pseudo-reflections" in doc["caveat"]
    # the series still both appear
    assert len(doc["series_invariant_forms"]) == 7
    doc2 = canonical_comparison(Z3, 6)
    assert doc2["identification_certified"]
    assert doc2["match"]
    assert doc2["series_invariant_forms"] == [0, 0, 0, 2, 0, 0, 5]


def test_chain_check_a1():
    rows = surjectivity_check(Z2, 1, 6).table.rows
    gaps = [d for d, tdim, idim, coker in rows if coker]
    assert gaps == [2]
    for d, tdim, idim, _ in rows:
        assert idim <= tdim


def test_chain_check_equality_on_smooth_and_trivial():
    for act, bound in [(Z2R, 6), (T, 6), (make_action(2), 4)]:
        for k in range(1, 3):
            rows = surjectivity_check(act, k, bound).table.rows
            assert all(coker == 0 for _, _, _, coker in rows)
