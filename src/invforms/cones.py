"""Integer lattices and rational cones backing the monoid computations.

Everything here is desk scale: supports and generator subsets are
enumerated outright.  The cone of interest is always {a >= 0 :
(torus rows) . a = 0} and the lattice is the kernel of the full weight
map (torus rows exactly zero, finite rows zero mod their orders).
"""

from itertools import combinations
from math import gcd, lcm

from invforms.linalg import echelon_of, kernel_of_rows, rank_of_rows


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g <= 1:
        return list(vec)
    return [x // g for x in vec]


def hnf_rows(rows, ncols):
    """Hermite form of the lattice generated by integer rows.

    Returns (basis, pivot_cols); pivot entries positive, entries above
    each pivot reduced into [0, pivot).  Canonical for the lattice.
    """
    mat = [list(r) for r in rows if any(r)]
    r = 0
    pivots = []
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        again = True
        while again:
            again = False
            for i in range(r + 1, len(mat)):
                if mat[i][col]:
                    q = mat[i][col] // mat[r][col]
                    if q:
                        mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][col]:
                        mat[r], mat[i] = mat[i], mat[r]
                        again = True
        if mat[r][col] < 0:
            mat[r] = [-a for a in mat[r]]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    basis = mat[:r]
    # pivot order: reducing by row idx only touches columns >= its pivot,
    # so the columns of earlier pivots stay reduced
    for idx in range(r):
        c = pivots[idx]
        p = basis[idx][c]
        for j in range(idx):
            q = basis[j][c] // p
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[idx])]
    return basis, pivots


def same_lattice(rows_a, rows_b, ncols):
    return hnf_rows(rows_a, ncols)[0] == hnf_rows(rows_b, ncols)[0]


def integer_kernel(rows, ncols):
    """Basis of the integer solutions of rows . x = 0."""
    nrows = len(rows)
    if nrows == 0:
        return [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)]
    aug = []
    for j in range(ncols):
        prefix = [rows[i][j] for i in range(nrows)]
        unit = [0] * ncols
        unit[j] = 1
        aug.append(prefix + unit)
    basis, _ = hnf_rows(aug, nrows + ncols)
    return [row[nrows:] for row in basis if not any(row[:nrows])]


def congruence_lattice_basis(action):
    """Hermite basis of {a in Z^n : torus rows . a = 0, finite rows = 0 mod m}."""
    n, s, t = action.n, action.torus_rank, action.t
    rows = []
    for j in range(s):
        rows.append(list(action.torus_row(j)) + [0] * t)
    for j in range(t):
        slack = [0] * t
        slack[j] = action.finite_orders[j]
        rows.append(list(action.finite_row(j)) + slack)
    if not rows:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    kern = integer_kernel(rows, n + t)
    basis, _ = hnf_rows([v[:n] for v in kern], n)
    return basis


def extremal_rays(action):
    """Primitive generators of the extremal rays of {a >= 0 : torus . a = 0}.

    Support sets are enumerated: a support T carries a ray iff the
    torus kernel restricted to T is one-dimensional with a strictly
    positive generator.
    """
    n, s = action.n, action.torus_rank
    trows = [list(action.torus_row(j)) for j in range(s)]
    rays = []
    for size in range(1, n + 1):
        for T in combinations(range(n), size):
            sub = [[row[i] for i in T] for row in trows]
            kern = kernel_of_rows(sub, size)
            if len(kern) != 1:
                continue
            v = kern[0]
            if any(x == 0 for x in v):
                continue
            if v[0] < 0:
                v = [-x for x in v]
            if any(x < 0 for x in v):
                continue
            full = [0] * n
            for i, x in zip(T, v):
                full[i] = x
            rays.append(primitive(full))
    rays.sort(key=lambda r: (sum(r), r))
    return rays


def ray_monoid_generators(action):
    """Scale each extremal ray to the least multiple meeting the congruences."""
    gens = []
    for ray in extremal_rays(action):
        c = 1
        for j, m in enumerate(action.finite_orders):
            val = dot(action.finite_row(j), ray) % m
            if val:
                c = lcm(c, m // gcd(m, val))
        gens.append([c * x for x in ray])
    return gens


def hilbert_certificate_bound(action, gens):
    """Degree below which the full Hilbert basis provably lives.

    Every irreducible element of a normal monoid decomposes inside a
    simplicial subcone spanned by extremal generators, hence has degree
    at most the sum of their degrees.  For a finite-only action the
    group order is an alternative (Noether-type) bound; the smaller of
    the two is returned.  `gens` are the action's
    `ray_monoid_generators`.
    """
    ray_bound = sum(sum(g) for g in gens)
    if action.torus_rank == 0:
        return min(ray_bound, action.group_order)
    return ray_bound


def span_dim(vectors, ncols):
    return rank_of_rows([list(v) for v in vectors], ncols)


# No engine path needs facets: `facet_normals` is kept for perfbench/,
# which traces it, and the tests' oracle.
def facet_normals(gens):
    """Inward normals of the facets of the cone spanned by `gens`.

    The normals are integer vectors on the span of the generators;
    membership in the relative interior is positivity against all of
    them.  Empty generator list (the zero cone) has no facets.
    """
    gens = [list(g) for g in gens if any(g)]
    if not gens:
        return []
    n = len(gens[0])
    span_basis = echelon_of(gens, n).rows
    d = len(span_basis)
    normals = set()
    for sub in combinations(range(len(gens)), d - 1):
        cond = [
            [dot(span_basis[r], gens[i]) for r in range(d)] for i in sub
        ]
        kern = kernel_of_rows(cond, d)
        if len(kern) != 1:
            continue
        c = kern[0]
        ell = [
            sum(c[r] * span_basis[r][col] for r in range(d))
            for col in range(n)
        ]
        vals = [dot(ell, g) for g in gens]
        if all(v <= 0 for v in vals):
            ell = [-x for x in ell]
            vals = [-v for v in vals]
        if any(v < 0 for v in vals):
            continue
        zero_rows = [gens[i] for i, v in enumerate(vals) if v == 0]
        if rank_of_rows(zero_rows, n) != d - 1:
            continue
        normals.add(tuple(primitive(ell)))
    return [list(e) for e in sorted(normals)]
