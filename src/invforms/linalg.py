"""Exact rational linear algebra on small dense matrices.

Everything is done fraction-free over the integers: rows are integer
rows, kept primitive.  Arithmetic is on Python ints, so entries may
grow arbitrarily large.

A row is reduced against the echelon rows in one pass, with one content
division at the end.  Eliminating pivot column p scales the row by the
pivot entry and subtracts a multiple of that pivot row; both
multipliers are first cut by their gcd, and the row's content is only
divided out once every pivot column is cleared.  That gives the same
row as dividing at every step: the echelon rows are fully reduced, so a
residual of `row`, a combination a*row + sum b_i*rows_i that is zero in
every pivot column, has each b_i fixed by a, and the residuals form one
line.  Its primitive generator with a positive leading entry is unique.

All outputs are canonical: the reduced echelon form of a row space is
unique, kernels are returned in reduced form with ascending free
columns, so results are byte-stable across runs.
"""

from bisect import bisect_left
from math import gcd, lcm

# Read by the benchmark's environment stamp; there is one backend.
BACKEND = "pure"


class Echelon:
    """Incremental reduced row echelon form of a growing row set.

    Rows are primitive integer vectors; pivot entries are positive and
    every pivot column is zero in all other rows, so `rows` is the
    canonical RREF (up to overall scaling of each row) of the span.
    """

    __slots__ = ("ncols", "rows", "pivots")

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, row):
        """(residual, lead column) of the integer `row`: the primitive
        residual with a positive leading entry, or None when `row` is in
        the span."""
        cur = list(row)
        for erow, p in zip(self.rows, self.pivots):
            c = cur[p]
            if c:
                a = erow[p]
                g = gcd(a, c)
                if g > 1:
                    a //= g
                    c //= g
                cur = [a * x - c * y for x, y in zip(cur, erow)]
        g = gcd(*cur)
        if not g:
            return None
        for lead, x in enumerate(cur):
            if x:
                break
        if x < 0:
            g = -g
        return (cur if g == 1 else [x // g for x in cur]), lead

    def insert(self, row):
        """Add `row` to the span; return its pivot column or None if dependent."""
        got = self._reduce(row)
        if got is None:
            return None
        red, lead = got
        rows = self.rows
        pos = bisect_left(self.pivots, lead)
        rows.insert(pos, red)
        self.pivots.insert(pos, lead)
        # Restore full reduction: only rows with earlier pivots can be
        # nonzero in the new pivot column.  Their leading entries stay
        # positive, so dividing out the content keeps them canonical.
        a = red[lead]
        for i in range(pos):
            r = rows[i]
            c = r[lead]
            if c:
                g = gcd(a, c)
                s, c = a // g, c // g
                r = [s * x - c * y for x, y in zip(r, red)]
                g = gcd(*r)
                rows[i] = r if g == 1 else [x // g for x in r]
        return lead

    def kernel_basis(self):
        """Primitive integer basis of {v : r . v = 0 for every row r}.

        One vector per free column, ascending, each normalized so the
        free coordinate is positive; canonical for the row space.
        """
        pivset = set(self.pivots)
        basis = []
        for f in range(self.ncols):
            if f in pivset:
                continue
            # v[f] = 1, v[p] = -r[f]/r[p]; cleared to primitive integers
            touched = [
                (p, r[f], r[p]) for r, p in zip(self.rows, self.pivots) if r[f]
            ]
            scale = 1
            for _, rf, rp in touched:
                scale = lcm(scale, rp // gcd(rp, rf))
            vec = [0] * self.ncols
            vec[f] = scale
            g = scale
            for p, rf, rp in touched:
                vec[p] = -rf * scale // rp
                g = gcd(g, vec[p])
            if g > 1:
                vec = [x // g for x in vec]
            basis.append(vec)
        return basis


def echelon_of(rows, ncols):
    ech = Echelon(ncols)
    for row in rows:
        ech.insert(row)
    return ech


def rank_of_rows(rows, ncols):
    return echelon_of(rows, ncols).rank


def kernel_of_rows(rows, ncols):
    """Basis of the solution space of the homogeneous system rows . v = 0."""
    return echelon_of(rows, ncols).kernel_basis()
