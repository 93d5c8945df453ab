import random

import pytest
from hypothesis import example, given

from invforms.action import make_action, weight_of_form, zero_weight, Weight
from invforms.errors import InhomogeneityError, PreconditionError
from invforms.euler import (
    EulerOperator,
    bracket_defect,
    dmu,
    euler_contract,
    euler_homology,
    homology_all_weights,
    horizontal_piece,
    is_horizontal,
)
from invforms.forms import PolyForm, wedge
from invforms.pieces import Grading, form_to_vector, piece_keys
from invforms.linalg import Echelon
from invforms.poly import Polynomial
from oracles import actions, piecewide_homology, random_monomial_form

N = 2
X = Polynomial.variable(N, 0)
Y = Polynomial.variable(N, 1)
DX = PolyForm.dx(N, 0)
DY = PolyForm.dx(N, 1)
ACT11 = make_action(2, torus_rank=1, weight_matrix=[[1, 1]])
ACT1M1 = make_action(2, torus_rank=1, weight_matrix=[[1, -1]])


def test_contract_on_differentials():
    op = EulerOperator(ACT11, 0)
    assert euler_contract(op, DX) == PolyForm.from_poly(X)
    assert euler_contract(op, PolyForm.from_poly(X * X).d()) == PolyForm.from_poly(
        2 * X * X
    )
    assert euler_contract(op, X * DY - Y * DX).is_zero
    op2 = EulerOperator(ACT1M1, 0)
    assert euler_contract(op2, X * DY + Y * DX).is_zero
    assert euler_contract(op2, PolyForm.from_poly(X * Y).d()).is_zero


def test_contract_is_weight_times_f_on_differentials():
    rng = random.Random(53)
    act = make_action(3, torus_rank=1, weight_matrix=[[2, -1, 3]])
    op = EulerOperator(act, 0)
    for _ in range(50):
        f = random_monomial_form(rng, 3, 0, rng.randint(0, 5))
        w = weight_of_form(act, f).torus[0]
        assert euler_contract(op, f.d()) == w * f


def test_dmu():
    finite = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
    assert dmu(finite, X * DX) == []
    assert is_horizontal(finite, X * DX)
    assert dmu(ACT1M1, PolyForm.from_poly(X * Y).d()) == [PolyForm.zero(2, 0)]
    axes = make_action(2, torus_rank=2, weight_matrix=[[1, 0], [0, 1]])
    assert dmu(axes, DX) == [PolyForm.from_poly(X), PolyForm.zero(2, 0)]


def test_contract_squares_to_zero_randomized():
    rng = random.Random(59)
    act = make_action(4, torus_rank=1, weight_matrix=[[1, 2, -1, 3]])
    op = EulerOperator(act, 0)
    for _ in range(60):
        k = rng.randint(2, 4)
        a = random_monomial_form(rng, 4, k, 3) + random_monomial_form(rng, 4, k, 2)
        assert euler_contract(op, euler_contract(op, a)).is_zero


def test_signed_leibniz_randomized():
    rng = random.Random(61)
    act = make_action(4, torus_rank=1, weight_matrix=[[1, -2, 1, 1]])
    op = EulerOperator(act, 0)
    for _ in range(60):
        k = rng.randint(0, 2)
        l = rng.randint(0, 2)
        a = random_monomial_form(rng, 4, k, 3)
        b = random_monomial_form(rng, 4, l, 3)
        lhs = euler_contract(op, wedge(a, b))
        sign = -1 if l % 2 else 1
        rhs = sign * wedge(euler_contract(op, a), b) + wedge(a, euler_contract(op, b))
        assert lhs == rhs


def test_bracket_defect_examples():
    assert bracket_defect(ACT11, DX).is_zero
    assert bracket_defect(ACT11, PolyForm.from_poly(X)).is_zero
    act23 = make_action(2, torus_rank=1, weight_matrix=[[2, 3]])
    assert bracket_defect(act23, X * DY).is_zero


def test_bracket_defect_randomized():
    rng = random.Random(67)
    act = make_action(3, torus_rank=2, weight_matrix=[[1, -1, 2], [0, 1, 1]])
    for _ in range(60):
        k = rng.randint(0, 3)
        a = random_monomial_form(rng, 3, k, 3)
        for ti in range(2):
            assert bracket_defect(act, a, torus_index=ti).is_zero


def test_bracket_defect_rejects_mixed_weights():
    with pytest.raises(InhomogeneityError):
        bracket_defect(ACT11, X * DX + DY)


def test_horizontal_piece_examples():
    basis = horizontal_piece(ACT1M1, 1, 2, zero_weight(ACT1M1))
    assert len(basis) == 1
    assert basis[0] == Y * DX + X * DY
    w2 = Weight((2,), (), ())
    assert horizontal_piece(ACT11, 2, 2, w2) == []
    finite = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
    assert len(horizontal_piece(finite, 1, 2, zero_weight(finite))) == 4


def test_horizontal_piece_is_intersection_of_single_factor_kernels():
    act = make_action(3, torus_rank=2, weight_matrix=[[1, 0, -1], [0, 1, -1]])
    w0 = zero_weight(act)
    for k in range(4):
        for d in range(k, 6):
            stacked = horizontal_piece(act, k, d, w0)
            # independent route: forms of the full piece killed by each
            # operator separately
            keys = piece_keys(act, k, d, w0)
            single = []
            for I, exps in keys:
                f = PolyForm.monomial_form(3, exps, I)
                single.append(f)
            ops = [EulerOperator(act, 0), EulerOperator(act, 1)]
            # brute-force the joint kernel by scanning the stacked span
            ech = Echelon(len(keys))
            positions = {key: i for i, key in enumerate(keys)}
            count = 0
            for f in stacked:
                assert all(euler_contract(op, f).is_zero for op in ops)
                assert ech.insert(form_to_vector(f, positions, len(keys))) is not None
                count += 1
            # dimension check against counting kernels one factor at a time
            from oracles import frac_kernel_dim

            rows = []
            for I, exps in keys:
                f = PolyForm.monomial_form(3, exps, I)
                tgt_keys = piece_keys(act, k - 1, d, w0) if k else []
                tgt_pos = {key: i for i, key in enumerate(tgt_keys)}
                row = []
                for op in ops:
                    img = euler_contract(op, f)
                    row.extend(form_to_vector(img, tgt_pos, len(tgt_keys)))
                rows.append(row)
            eqs = (
                [[rows[b][i] for b in range(len(keys))] for i in range(len(rows[0]))]
                if rows and rows[0]
                else []
            )
            assert count == frac_kernel_dim(eqs, len(keys))


def test_stability_of_invariant_horizontal_forms_under_d():
    # the invariant horizontal pieces are preserved by the exterior
    # derivative (weight-zero pieces only)
    act = ACT1M1
    w0 = zero_weight(act)
    for d in range(1, 6):
        for k in range(2):
            for f in horizontal_piece(act, k, d, w0):
                df = f.d()
                assert is_horizontal(act, df)
                if not df.is_zero:
                    assert weight_of_form(act, df).is_zero


def test_euler_homology_exactness():
    w = Weight((3,), (), ())
    res = euler_homology(ACT11, w, 3)
    assert res.dims == (4, 6, 2)
    assert res.homology == (0, 0, 0)
    res0 = euler_homology(ACT11, zero_weight(ACT11), 0)
    assert res0.homology == (1, 0, 0)
    act12 = make_action(2, torus_rank=1, weight_matrix=[[1, 2]])
    total = homology_all_weights(act12, 2)
    assert total.homology == (0, 0, 0)


def test_euler_homology_euler_characteristic():
    # alternating sums of piece dims and homology dims agree
    for degree in range(1, 7):
        res = homology_all_weights(ACT11, degree)
        chi_dims = sum((-1) ** k * d for k, d in enumerate(res.dims))
        chi_hom = sum((-1) ** k * h for k, h in enumerate(res.homology))
        assert chi_dims == chi_hom


def test_euler_homology_preconditions():
    finite = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
    with pytest.raises(PreconditionError):
        euler_homology(finite, zero_weight(finite), 2)
    with pytest.raises(PreconditionError) as err:
        euler_homology(
            ACT1M1, zero_weight(ACT1M1), 2, require_positive_grading=True
        )
    assert "coordinate 2" in str(err.value)
    w = zero_weight(ACT11)
    for j in (3, 1, -1):
        for positive in (False, True):
            with pytest.raises(PreconditionError):
                euler_homology(
                    ACT11, w, 2, torus_index=j, require_positive_grading=positive
                )
            with pytest.raises(PreconditionError):
                homology_all_weights(
                    ACT11, 2, torus_index=j, require_positive_grading=positive
                )
    # degree -1 has no weights; the checks come before enumeration
    with pytest.raises(PreconditionError):
        homology_all_weights(ACT1M1, -1, require_positive_grading=True)
    with pytest.raises(PreconditionError):
        homology_all_weights(ACT11, -1, torus_index=1)


def test_euler_homology_restricted_subcomplex():
    # distinguished factor 0, the other factor plays the group role
    act = make_action(3, torus_rank=2, weight_matrix=[[1, 1, 1], [0, 1, -1]])
    w = Weight((2, 0), (), ())
    res = euler_homology(act, w, 2, restrict_invariant_horizontal=True)
    full = euler_homology(act, w, 2)
    assert all(r <= f for r, f in zip(res.dims, full.dims))
    assert res.homology == (0, 0, 0, 0)
    # nonzero weight for the other factor leaves nothing invariant
    w_bad = Weight((2, 1), (), ())
    res_bad = euler_homology(act, w_bad, 2, restrict_invariant_horizontal=True)
    assert res_bad.dims == (0, 0, 0, 0)


# the distinguished row [1, -1] is the other row [2, -2] halved: under
# the restriction every differential is zero
@example(make_action(2, torus_rank=2, weight_matrix=[[1, -1], [2, -2]]))
# neither row is in the span of the other on the full support
@example(make_action(3, torus_rank=2, weight_matrix=[[1, 0, -1], [0, 1, -1]]))
# x has finite weight 1: nothing survives the restriction there
@example(
    make_action(2, torus_rank=1, finite_orders=[2], weight_matrix=[[1, -1], [1, 0]])
)
@given(actions(4, 2).filter(lambda act: act.torus_rank >= 1))
def test_homology_matches_the_piecewide_route(act):
    grading = Grading(act)
    for d in range(5):
        for w in grading.buckets(d):
            for j in range(act.torus_rank):
                for restrict in (False, True):
                    got = euler_homology(act, w, d, restrict, j, grading=grading)
                    want = piecewide_homology(act, w, d, restrict, j)
                    assert (got.dims, got.homology) == want
