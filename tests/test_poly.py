import random
from fractions import Fraction

import pytest

from invforms.errors import StructuralError
from invforms.poly import Polynomial
from oracles import exact_div, polynomial_matrix_rank, random_polynomial


def test_zero_terms_are_dropped():
    p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert list(p.terms) == [(1, 0)]
    x = Polynomial.variable(2, 0)
    assert (x - x).is_zero


def test_arithmetic_small_cases():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (x * 0).is_zero


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = random_polynomial(rng, n, 4)
        b = random_polynomial(rng, n, 4)
        c = random_polynomial(rng, n, 4)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)


def test_partial_derivative():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x * x * y + 3 * y
    assert p.partial(0) == 2 * x * y
    assert p.partial(1) == x * x + 3
    # mixed partials commute
    rng = random.Random(5)
    for _ in range(20):
        q = random_polynomial(rng, 3, 5)
        assert q.partial(0).partial(2) == q.partial(2).partial(0)


def test_variable_count_mismatch():
    with pytest.raises(StructuralError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
    with pytest.raises(StructuralError):
        Polynomial(2, {(1, 0, 0): 1})


def test_exact_division():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = random_polynomial(rng, n, 3)
        b = random_polynomial(rng, n, 3)
        if b.is_zero:
            continue
        assert exact_div(a * b, b) == a
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    with pytest.raises(ArithmeticError):
        exact_div(x * x + y, x + 1)


def test_homogeneity_queries():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (x * y + x * x).is_homogeneous
    assert not (x + x * x).is_homogeneous
    assert Polynomial.zero(2).is_homogeneous
    assert (x * y).total_degree() == 2
    assert Polynomial.zero(2).total_degree() == -1


def test_polynomial_matrix_rank():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1)
    zero = Polynomial.zero(2)
    assert polynomial_matrix_rank([[x, y], [y, x]]) == 2
    # second row is y/x times the first over the function field
    assert polynomial_matrix_rank([[x * x, x * y], [x * y, y * y]]) == 1
    assert polynomial_matrix_rank([[zero, zero]]) == 0
    assert polynomial_matrix_rank([[one, x], [y, x * y]]) == 1
    assert polynomial_matrix_rank([[one, x], [y, x]]) == 2
    assert polynomial_matrix_rank([[one, x], [y, x * y], [y, x * y]]) == 1


def test_str_is_deterministic():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert str(2 * x * y - y) == "-y + 2*x*y"
    assert str(Polynomial.zero(2)) == "0"
