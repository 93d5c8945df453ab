"""Exact row reduction: correctness against a naive oracle."""

import random
from fractions import Fraction

from invforms.linalg import Echelon, echelon_of, kernel_of_rows, rank_of_rows
from oracles import frac_kernel_dim, frac_rank


def random_matrix(rng, nrows, ncols, density=0.7):
    return [
        [
            rng.randint(-6, 6) if rng.random() < density else 0
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def test_rank_matches_oracle():
    rng = random.Random(7)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        mat = random_matrix(rng, nrows, ncols)
        assert rank_of_rows(mat, ncols) == frac_rank(mat)


def test_kernel_vectors_solve_the_system():
    rng = random.Random(11)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        mat = random_matrix(rng, nrows, ncols)
        kern = kernel_of_rows(mat, ncols)
        assert len(kern) == frac_kernel_dim(mat, ncols)
        for v in kern:
            for row in mat:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_rref_is_canonical_under_row_shuffles():
    rng = random.Random(13)
    for _ in range(30):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 6)
        mat = random_matrix(rng, nrows, ncols)
        ech1 = echelon_of(mat, ncols)
        shuffled = mat[:]
        rng.shuffle(shuffled)
        ech2 = echelon_of(shuffled, ncols)
        assert ech1.rows == ech2.rows
        assert ech1.pivots == ech2.pivots


def test_fraction_rows_are_scaled():
    ech = Echelon(2)
    assert ech.insert([Fraction(1, 2), Fraction(1, 3)]) == 0
    assert ech.rows == [[3, 2]]
    assert ech.contains([3, 2])
    assert ech.contains([Fraction(3, 7), Fraction(2, 7)])
    assert not ech.contains([1, 0])


def test_contains_and_insert_are_consistent():
    rng = random.Random(17)
    for _ in range(30):
        ncols = rng.randint(2, 6)
        ech = Echelon(ncols)
        rows = random_matrix(rng, 5, ncols)
        for row in rows:
            before = ech.contains(row)
            pivot = ech.insert(row)
            assert (pivot is None) == before


def test_bignum_entries_survive():
    big = 10**40
    ech = Echelon(2)
    ech.insert([big, 1])
    ech.insert([1, big])
    assert ech.rank == 2
    kern = kernel_of_rows([[big, 1], [big, 1]], 2)
    assert kern == [[1, -big]] or kern == [[-1, big]]
