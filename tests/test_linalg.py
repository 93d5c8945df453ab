"""Exact row reduction: correctness against a naive oracle."""

import random

from hypothesis import given, strategies as st

from invforms.linalg import Echelon, echelon_of, kernel_of_rows, rank_of_rows
from oracles import ReferenceEchelon, frac_kernel_dim, frac_rank


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


def test_bignum_entries_survive():
    big = 10**40
    ech = Echelon(2)
    ech.insert([big, 1])
    ech.insert([1, big])
    assert ech.rank == 2
    kern = kernel_of_rows([[big, 1], [big, 1]], 2)
    assert kern == [[1, -big]] or kern == [[-1, big]]


SMALL = st.integers(-4, 4)
BIG = st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64))


@st.composite
def row_lists(draw):
    """Rows of small ints, or of ints mixed with entries of at least 2^64
    in absolute value; some are combinations of earlier rows, so
    insertion also meets dependent rows."""
    ncols = draw(st.integers(0, 8))
    entry = draw(st.sampled_from([SMALL, SMALL | BIG]))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(SMALL, min_size=len(rows), max_size=len(rows)))
            rows.append(
                [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
            )
        else:
            rows.append(draw(st.lists(SMALL | entry, min_size=ncols, max_size=ncols)))
    return ncols, rows


@given(row_lists())
def test_one_pass_reduction_matches_the_reference(case):
    ncols, rows = case
    ech, ref = Echelon(ncols), ReferenceEchelon(ncols)
    for row in rows:
        assert ech.insert(row) == ref.insert(row)
        assert ech.rows == ref.rows
        assert ech.pivots == ref.pivots
        assert all(type(x) is int for r in ech.rows for x in r)
    assert ech.kernel_basis() == ref.kernel_basis()
