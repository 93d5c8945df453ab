"""Independent brute-force oracles for the test suite.

Nothing here may call into the engine's linear algebra or enumeration
helpers: ranks are naive Gaussian elimination over Fractions, monomial
enumeration goes through itertools.product, weights are recomputed
from the raw matrix.
"""

from fractions import Fraction
from itertools import combinations, product


def frac_rank(rows):
    """Naive Gaussian elimination rank over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def frac_kernel_dim(rows, ncols):
    if not rows:
        return ncols
    return ncols - frac_rank(rows)


def brute_weight(weight_matrix, torus_rank, finite_orders, exps):
    """(torus tuple, finite tuple) of a monomial, from the raw matrix."""
    torus = tuple(
        sum(w * e for w, e in zip(weight_matrix[j], exps))
        for j in range(torus_rank)
    )
    finite = tuple(
        sum(w * e for w, e in zip(weight_matrix[torus_rank + j], exps)) % m
        for j, m in enumerate(finite_orders)
    )
    return torus, finite


def brute_weight0_monomials(weight_matrix, torus_rank, finite_orders, n, d):
    """Exponents of degree d with weight zero, via raw product enumeration."""
    out = []
    for exps in product(range(d + 1), repeat=n):
        if sum(exps) != d:
            continue
        torus, finite = brute_weight(weight_matrix, torus_rank, finite_orders, exps)
        if not any(torus) and not any(finite):
            out.append(exps)
    return sorted(out)


def brute_monomials(n, d):
    """Exponents of total degree d, ascending, via raw product enumeration."""
    if d < 0:
        return []
    return sorted(e for e in product(range(d + 1), repeat=n) if sum(e) == d)


def brute_pieces(weight_matrix, torus_rank, finite_orders, n, k, d):
    """{weight: sorted (I, exps) basis} of the k-forms of total degree d.

    Scans every k-subset I and every exponent vector of degree d - k;
    the weight of x^exps dx_I is that of x^exps times every x_i, i in I.
    """
    out = {}
    monomials = brute_monomials(n, d - k)
    for I in combinations(range(n), k):
        for exps in monomials:
            shifted = [e + (1 if i in I else 0) for i, e in enumerate(exps)]
            w = brute_weight(weight_matrix, torus_rank, finite_orders, shifted)
            out.setdefault(w, []).append((I, exps))
    return {w: sorted(keys) for w, keys in out.items()}


def brute_monomials_by_weight(weight_matrix, torus_rank, finite_orders, n, d):
    """{weight: ascending exponents} of the monomials of degree d."""
    out = {}
    for exps in brute_monomials(n, d):
        w = brute_weight(weight_matrix, torus_rank, finite_orders, exps)
        out.setdefault(w, []).append(exps)
    return out


def random_polynomial(rng, n, max_degree, terms=3):
    from invforms.poly import Polynomial

    entries = {}
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(n))
        if sum(exps) > max_degree:
            continue
        entries[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(n, entries)


def random_form(rng, n, k, max_degree, terms=3):
    from invforms.forms import PolyForm
    from itertools import combinations

    subsets = list(combinations(range(n), k))
    comps = {}
    for _ in range(rng.randint(1, terms)):
        I = rng.choice(subsets)
        p = random_polynomial(rng, n, max_degree, terms=2)
        comps[I] = comps.get(I, 0) + p if I in comps else p
    return PolyForm(n, k, {I: p for I, p in comps.items() if not p.is_zero})


def random_monomial_form(rng, n, k, coeff_degree):
    """Single-term form (always homogeneous in degree and weight)."""
    from invforms.forms import PolyForm
    from itertools import combinations

    subsets = list(combinations(range(n), k))
    I = rng.choice(subsets)
    exps = [0] * n
    for _ in range(coeff_degree):
        exps[rng.randrange(n)] += 1
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
    return PolyForm.monomial_form(n, tuple(exps), I, c)
