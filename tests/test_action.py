import json
import random

import pytest

from invforms.action import (
    Weight,
    action_from_dict,
    action_to_dict,
    dumps_action,
    finite_part_is_small,
    loads_action,
    make_action,
    validate_action,
    weight_of_exponents,
)
from invforms.errors import InhomogeneityError, StructuralError, ValidationError
from invforms.forms import PolyForm, wedge
from invforms.poly import Polynomial
from oracles import brute_weight, random_monomial_form, weight_of_form, zero_weight

Z2 = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
T = make_action(2, torus_rank=1, weight_matrix=[[1, -1]])
X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)
DX = PolyForm.dx(2, 0)
DY = PolyForm.dx(2, 1)


def test_weight_of_monomial_examples():
    assert weight_of_exponents(Z2, (2, 1)).finite == (1,)
    assert weight_of_exponents(T, (1, 1)).torus == (0,)
    assert weight_of_exponents(T, (0, 0)) == zero_weight(T)
    # dx_i weighs as x_i
    assert weight_of_exponents(T, (1, 0), (0,)).torus == (2,)


def test_weight_of_monomial_matches_raw_matrix():
    rng = random.Random(41)
    actions = [
        Z2,
        T,
        make_action(
            3, torus_rank=1, finite_orders=[4], weight_matrix=[[2, -1, 0], [1, 2, 3]]
        ),
    ]
    for act in actions:
        for _ in range(30):
            exps = tuple(rng.randint(0, 5) for _ in range(act.n))
            w = weight_of_exponents(act, exps)
            torus, finite = brute_weight(
                act.weight_matrix, act.torus_rank, act.finite_orders, exps
            )
            assert (w.torus, w.finite) == (torus, finite)


def test_weight_of_form():
    assert weight_of_form(T, X * DY).torus == (0,)
    assert weight_of_form(Z2, wedge(DX, DY)).finite == (0,)
    with pytest.raises(InhomogeneityError) as err:
        weight_of_form(T, X * DX + DY)
    assert err.value.weight_a != err.value.weight_b
    assert weight_of_form(T, PolyForm.zero(2, 1)) == zero_weight(T)


def test_weight_length_mismatch():
    with pytest.raises(StructuralError):
        weight_of_exponents(Z2, (1, 2, 3))


def _plus(a, b):
    return Weight(
        tuple(x + y for x, y in zip(a.torus, b.torus)),
        tuple((x + y) % m for x, y, m in zip(a.finite, b.finite, a.orders)),
        a.orders,
    )


def test_weight_additivity_under_wedge_and_d():
    rng = random.Random(43)
    act = make_action(
        3, torus_rank=1, finite_orders=[3], weight_matrix=[[1, -2, 1], [1, 1, 2]]
    )
    for _ in range(60):
        k = rng.randint(0, 2)
        l = rng.randint(0, 3 - k)
        a = random_monomial_form(rng, 3, k, rng.randint(0, 3))
        b = random_monomial_form(rng, 3, l, rng.randint(0, 3))
        wa, wb = weight_of_form(act, a), weight_of_form(act, b)
        ab = wedge(a, b)
        if not ab.is_zero:
            assert weight_of_form(act, ab) == _plus(wa, wb)
        da = a.d()
        if not da.is_zero:
            assert weight_of_form(act, da) == wa


def test_validate_action_errors():
    with pytest.raises(ValidationError):
        make_action(2, finite_orders=[1], weight_matrix=[[1, 1]])
    with pytest.raises(ValidationError) as err:
        make_action(2, finite_orders=[2], weight_matrix=[[1, 1, 1]])
    assert err.value.row == 0
    with pytest.raises(ValidationError):
        make_action(2, torus_rank=1, weight_matrix=[])
    with pytest.raises(ValidationError):
        make_action(0)


def test_validate_action_reduces_finite_rows():
    act = make_action(2, finite_orders=[2], weight_matrix=[[3, -1]])
    assert act.weight_matrix == ((1, 1),)
    assert validate_action(act) == act


def test_smallness_report():
    assert not finite_part_is_small(
        make_action(2, finite_orders=[2], weight_matrix=[[1, 0]])
    )
    assert finite_part_is_small(Z2)


def test_json_round_trip_is_bit_exact():
    for act in [
        Z2,
        T,
        make_action(
            3, torus_rank=2, finite_orders=[2, 3],
            weight_matrix=[[1, 0, -1], [0, 1, 1], [1, 1, 0], [0, 2, 1]],
        ),
    ]:
        text = dumps_action(act)
        assert loads_action(text) == act
        assert dumps_action(loads_action(text)) == text
        assert action_from_dict(json.loads(text)) == act
        assert action_to_dict(act) == json.loads(text)

