from itertools import product

import pytest
from hypothesis import assume, example, given

from invforms.action import (
    action_vector,
    finite_part_is_small,
    finite_reflection_elements,
    iter_finite_elements,
    load_action,
    make_action,
)
from invforms.errors import ResourceLimitError, UnsupportedRouteError
from invforms.invariants import quotient_dimension
from invforms.pieces import Grading
from invforms.pullback import target_generator_bound
from invforms.smoothness import (
    isolated_singularity_certificate,
    monoid_smooth,
    shephard_todd_smooth,
    smoothness_verdict,
)
from oracles import actions, certified_basis, singular_codimension

Z2 = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
Z2R = make_action(2, finite_orders=[2], weight_matrix=[[1, 0]])
Z6 = make_action(2, finite_orders=[6], weight_matrix=[[1, 3]])
T = make_action(2, torus_rank=1, weight_matrix=[[1, -1]])


def test_pseudo_reflections_examples():
    assert finite_reflection_elements(Z2) == []
    assert finite_reflection_elements(Z2R) == [(1,)]
    assert finite_reflection_elements(Z6) == [(2,), (4,)]


def test_pseudo_reflections_closed_under_inversion():
    for act in [Z2R, Z6, make_action(2, finite_orders=[4], weight_matrix=[[2, 1]])]:
        refl = set(finite_reflection_elements(act))
        for e in refl:
            inv = tuple((-c) % m for c, m in zip(e, act.finite_orders))
            assert inv in refl


def test_pseudo_reflections_needs_finite_action():
    with pytest.raises(UnsupportedRouteError):
        shephard_todd_smooth(T)


def brute_subgroup_generated(action, elements):
    """Oracle: image of the abstract subgroup generated by `elements`."""
    orders = action.finite_orders
    group = {tuple(0 for _ in orders)}
    grew = True
    while grew:
        grew = False
        for a in list(group):
            for b in elements:
                cand = tuple((x + y) % m for x, y, m in zip(a, b, orders))
                if cand not in group:
                    group.add(cand)
                    grew = True
    return {action_vector(action, e) for e in group}


def test_shephard_todd_examples():
    assert not shephard_todd_smooth(Z2)
    assert shephard_todd_smooth(Z2R)
    # confirmed by the brute-force subgroup oracle: reflections of
    # Z/6 (1,3) generate a subgroup of order 3 inside the order-6 image
    assert not shephard_todd_smooth(Z6)
    refl = finite_reflection_elements(Z6)
    sub = brute_subgroup_generated(Z6, refl)
    image = {
        action_vector(Z6, (c,)) for c in range(6)
    }
    assert len(sub) == 3 and len(image) == 6


def test_shephard_todd_non_faithful_and_product_cases():
    # trivial action: the image group is trivial, hence "generated by
    # pseudo-reflections" vacuously
    triv = make_action(2, finite_orders=[2], weight_matrix=[[0, 0]])
    assert shephard_todd_smooth(triv)
    # Z/6 (2,3): the reflections g^2, g^3, g^4 generate everything
    z6s = make_action(2, finite_orders=[6], weight_matrix=[[2, 3]])
    assert shephard_todd_smooth(z6s)
    axes = make_action(2, finite_orders=[2, 2], weight_matrix=[[1, 0], [0, 1]])
    assert shephard_todd_smooth(axes)



def _finite_grid():
    """Every Z/m row on n <= 3 for m in {2, 3, 4, 6}, and every pair of
    rows of Z/m1 x Z/m2 on n = 2 for four small (m1, m2)."""
    for m in (2, 3, 4, 6):
        for n in (1, 2, 3):
            for row in product(range(m), repeat=n):
                yield make_action(n, finite_orders=[m], weight_matrix=[row])
    for m1, m2 in ((2, 2), (2, 3), (2, 4), (3, 3)):
        for r1 in product(range(m1), repeat=2):
            for r2 in product(range(m2), repeat=2):
                yield make_action(2, finite_orders=[m1, m2], weight_matrix=[r1, r2])


def test_shephard_todd_matches_the_subgroup_closure():
    verdicts = []
    for act in _finite_grid():
        reflections = finite_reflection_elements(act)
        image = {action_vector(act, e) for e in iter_finite_elements(act)}
        want = brute_subgroup_generated(act, reflections) == image
        assert shephard_todd_smooth(act) == want, act
        verdicts.append(want)
    assert (len(verdicts), sum(verdicts)) == (592, 224)

def test_monoid_smooth_examples():
    assert monoid_smooth(Z2, 6) == "singular"
    assert monoid_smooth(Z2R, 6) == "smooth"
    assert monoid_smooth(T, 6) == "smooth"
    assert monoid_smooth(make_action(2, torus_rank=1, weight_matrix=[[1, -5]]), 4) == (
        "inconclusive"
    )
    # trivial monoid: a point is smooth
    assert monoid_smooth(make_action(2, torus_rank=1, weight_matrix=[[1, 1]]), 4) == (
        "smooth"
    )


def test_smoothness_verdict_examples():
    v = smoothness_verdict(Z2, 8)
    assert (v.monoid, v.shephard_todd, v.consolidated) == (
        "singular",
        "singular",
        "singular",
    )
    assert v.agreement
    assert all(verdict == "not_surjective" for _, verdict in v.surjectivity)

    v = smoothness_verdict(Z2R, 8)
    assert (v.monoid, v.shephard_todd, v.consolidated) == ("smooth", "smooth", "smooth")
    assert v.agreement

    v = smoothness_verdict(T, 8)
    assert v.monoid == "smooth"
    assert v.shephard_todd == "not_applicable"
    assert v.surjectivity == ((1, "surjective"),)
    assert v.agreement


@given(actions())
# once stopped by a non-canonical hnf_rows in the monoid route
@example(make_action(4, torus_rank=1, weight_matrix=[[-3, 1, -1, -3]]))
@example(make_action(4, torus_rank=1, weight_matrix=[[3, -3, 3, 2]]))
def test_certified_routes_agree(act):
    grading = Grading(act)
    basis = certified_basis(grading)
    dim_y = quotient_dimension(act, grading)
    # the least bound at which the monoid and every surjectivity route
    # certify their verdicts
    bound = max(
        [grading.certificate_bound(), 1]
        + [target_generator_bound(act, k, basis) for k in range(1, dim_y + 1)]
    )
    # larger bounds take seconds
    assume(bound <= 24)
    v = smoothness_verdict(act, bound, grading=grading)
    assert v.consolidated in ("smooth", "singular")
    assert v.agreement
    claim = v.consolidated == "smooth"
    assert (v.monoid == "smooth") == claim
    if v.shephard_todd != "not_applicable":
        assert (v.shephard_todd == "smooth") == claim
    verdicts = [verdict for _, verdict in v.surjectivity]
    assert "inconclusive" not in verdicts
    assert all(verdict == "surjective" for verdict in verdicts) == claim
    # the paper's theorem: surjective Kähler k-forms force
    # codim Y_sing > k + 1
    codim = singular_codimension(basis.generators, act.n)
    assert (codim is None) == (v.monoid == "smooth")
    if codim is not None:
        for k, verdict in v.surjectivity:
            if verdict == "surjective":
                assert codim > k + 1, (k, codim)
        if isolated_singularity_certificate(act, grading) == "isolated":
            assert codim == dim_y


def test_singular_codimension_examples(corpus_dir):
    want = {"z2_11": 2, "z3_111": 3, "z4_123": 2, "mix_t1z2": None}
    for name, codim in want.items():
        act = load_action(corpus_dir / f"{name}.json")
        basis = certified_basis(Grading(act))
        assert singular_codimension(basis.generators, act.n) == codim, name


def test_smoothness_verdict_inconclusive_route():
    act = make_action(2, torus_rank=1, weight_matrix=[[1, -5]])
    v = smoothness_verdict(act, 4)
    assert v.consolidated == "inconclusive"


def test_group_order_guard():
    act = make_action(
        2, finite_orders=[101, 101, 101], weight_matrix=[[1, 0], [0, 1], [1, 1]]
    )
    with pytest.raises(ResourceLimitError):
        finite_reflection_elements(act)


def test_validate_reports_smallness():
    assert finite_part_is_small(Z2)
    assert not finite_part_is_small(Z2R)
    assert not finite_part_is_small(Z6)


def test_isolated_certificate():
    assert isolated_singularity_certificate(Z2) == "isolated"
    z2_110 = make_action(3, finite_orders=[2], weight_matrix=[[1, 1, 0]])
    assert isolated_singularity_certificate(z2_110) == "unknown"
    assert isolated_singularity_certificate(T) == "isolated"
    t3 = make_action(3, torus_rank=1, weight_matrix=[[1, 1, -2]])
    assert isolated_singularity_certificate(t3) == "isolated"
