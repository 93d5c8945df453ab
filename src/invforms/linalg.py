"""Exact rational linear algebra on small dense matrices.

Everything is done fraction-free over the integers: rows of Fractions
are scaled to primitive integer rows, and elimination keeps entries
gcd-stripped.  Arithmetic is on Python ints, so entries may grow
arbitrarily large.

All outputs are canonical: the reduced echelon form of a row space is
unique, kernels are returned in reduced form with ascending free
columns, so results are byte-stable across runs.
"""

from bisect import bisect_left
from math import gcd, lcm

# Read by the benchmark's environment stamp; there is one backend.
BACKEND = "pure"


def normalize_row(row):
    """Divide by the content and make the leading nonzero entry positive."""
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
    if g == 0:
        return list(row)
    lead = 0
    for x in row:
        if x:
            lead = x
            break
    if lead < 0:
        g = -g
    return [x // g for x in row]


def combine_rows(a, b, p, q):
    """Return the row p*a - q*b."""
    return [p * x - q * y for x, y in zip(a, b)]


def reduce_row(row, rows, pivots):
    """Eliminate `row` against echelon `rows` (pivot columns `pivots`).

    Rows must be sorted by pivot column and each have a positive pivot
    entry.  The fully reduced row is returned normalized.
    """
    cur = list(row)
    for erow, p in zip(rows, pivots):
        c = cur[p]
        if c:
            lead = erow[p]
            cur = [lead * x - c * y for x, y in zip(cur, erow)]
            g = 0
            for x in cur:
                if x:
                    g = gcd(g, x)
            if g > 1:
                cur = [x // g for x in cur]
    return normalize_row(cur)


def int_row(row):
    """Scale a row of Fractions/ints to a row of ints (common denominator)."""
    den = 1
    for x in row:
        d = x.denominator  # 1 for ints
        if d != 1:
            den = lcm(den, d)
    if den == 1:
        return [x if type(x) is int else int(x) for x in row]
    return [int(x * den) for x in row]


class Echelon:
    """Incremental reduced row echelon form of a growing row set.

    Rows are primitive integer vectors; pivot entries are positive and
    every pivot column is zero in all other rows, so `rows` is the
    canonical RREF (up to overall scaling of each row) of the span.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def residual(self, row):
        """Fully reduce `row` against the current rows (row: Fractions/ints)."""
        return reduce_row(int_row(row), self.rows, self.pivots)

    def insert(self, row):
        """Add `row` to the span; return its pivot column or None if dependent."""
        red = self.residual(row)
        lead = -1
        for j, x in enumerate(red):
            if x:
                lead = j
                break
        if lead < 0:
            return None
        pos = bisect_left(self.pivots, lead)
        self.rows.insert(pos, red)
        self.pivots.insert(pos, lead)
        # Restore full reduction: only rows with earlier pivots can be
        # nonzero in the new pivot column.
        for i in range(pos):
            r = self.rows[i]
            c = r[lead]
            if c:
                self.rows[i] = normalize_row(combine_rows(r, red, red[lead], c))
        return lead

    def contains(self, row):
        return not any(self.residual(row))

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
