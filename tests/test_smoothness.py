import pytest

from invforms.action import action_vector, make_action
from invforms.errors import ResourceLimitError, UnsupportedRouteError
from invforms.smoothness import (
    isolated_singularity_certificate,
    monoid_smooth,
    pseudo_reflections,
    shephard_todd_smooth,
    smoothness_verdict,
)

Z2 = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
Z2R = make_action(2, finite_orders=[2], weight_matrix=[[1, 0]])
Z6 = make_action(2, finite_orders=[6], weight_matrix=[[1, 3]])
T = make_action(2, torus_rank=1, weight_matrix=[[1, -1]])


def test_pseudo_reflections_examples():
    assert pseudo_reflections(Z2) == []
    assert [r.exponents for r in pseudo_reflections(Z2R)] == [(1,)]
    assert [r.exponents for r in pseudo_reflections(Z6)] == [(2,), (4,)]


def test_pseudo_reflections_closed_under_inversion():
    for act in [Z2R, Z6, make_action(2, finite_orders=[4], weight_matrix=[[2, 1]])]:
        refl = {r.exponents for r in pseudo_reflections(act)}
        for e in refl:
            inv = tuple((-c) % m for c, m in zip(e, act.finite_orders))
            assert inv in refl


def test_pseudo_reflections_needs_finite_action():
    with pytest.raises(UnsupportedRouteError):
        pseudo_reflections(T)
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
    refl = [r.exponents for r in pseudo_reflections(Z6)]
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


def test_smoothness_verdict_inconclusive_route():
    act = make_action(2, torus_rank=1, weight_matrix=[[1, -5]])
    v = smoothness_verdict(act, 4)
    assert v.consolidated == "inconclusive"


def test_group_order_guard():
    act = make_action(
        2, finite_orders=[101, 101, 101], weight_matrix=[[1, 0], [0, 1], [1, 1]]
    )
    with pytest.raises(ResourceLimitError):
        pseudo_reflections(act)


def test_validate_reports_smallness():
    assert Z2.finite_small
    assert not Z2R.finite_small
    assert not make_action(2, finite_orders=[6], weight_matrix=[[1, 3]]).finite_small


def test_isolated_certificate():
    assert isolated_singularity_certificate(Z2) == "isolated"
    z2_110 = make_action(3, finite_orders=[2], weight_matrix=[[1, 1, 0]])
    assert isolated_singularity_certificate(z2_110) == "unknown"
    assert isolated_singularity_certificate(T) == "isolated"
    t3 = make_action(3, torus_rank=1, weight_matrix=[[1, 1, -2]])
    assert isolated_singularity_certificate(t3) == "isolated"
