"""Independent brute-force oracles for the test suite.

Nothing here may call into the engine's linear algebra or enumeration
helpers: ranks are naive Gaussian elimination over Fractions, monomial
enumeration goes through itertools.product, weights are recomputed
from the raw matrix (`weight_of_form`).  `is_horizontal` applies the
engine's contraction operators, checked on their own in
`test_euler.py`.  The other exceptions are `piecewide_cokernel_table`
and `piecewide_homology`, the engine's former piece-wide routes, kept
to check the block routes against: they read piece bases from
`piece_keys` and reduce with `Echelon`, both checked against brute
force in their own tests.  Likewise `unsaturated_form_generators` and
`unsaturated_series_of` are the engine's former block sweeps, which
span every block from scratch and read their points off
`Grading.buckets`, and `block_span` is the engine's former per-point
scan over every generator, which the lift of `pieces.BlockModule`
replaced; they reduce with `Echelon`.  `subring_series` is the
engine's former count of the subring a monoid basis generates, and
`singular_codimension` reads codim Y_sing off the Hilbert basis, the
closed form the paper's theorem is checked against; `monoid_is_free`
decides freeness off the cone's ray generators, the closed form the
monoid route is checked against.  `certified_basis` is the engine's
former whole-Hilbert-basis helper, a scan to the certificate bound.
`ReferenceEchelon`
is the engine's former row reduction, which divided out the content
after every elimination step, and `dense_wedge_candidates` its former
wedge builder, which summed every term of every minor; the engine's
one-pass reduction and sparse wedges are checked against them.
`Echelon` takes integer rows, so the oracles scale form coordinates,
which are Fractions, with `int_row` before reducing them.
`monoid_symmetries` tries every coordinate permutation on the
brute-force weight-zero monomials, the group the engine's symmetry
search is checked against.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, gcd, lcm
from operator import add, le, mul

from hypothesis import strategies as st


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


def frac_det(mat):
    """Determinant of a square matrix by elimination over Fractions."""
    mat = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(len(mat)):
        piv = next((i for i in range(col, len(mat)) if mat[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for i in range(col + 1, len(mat)):
            c = mat[i][col] / mat[col][col]
            mat[i] = [a - c * b for a, b in zip(mat[i], mat[col])]
    return det


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


def zero_weight(action):
    """The weight of a constant, as an engine `Weight`."""
    from invforms.action import Weight

    return Weight((0,) * action.torus_rank, (0,) * action.t, action.finite_orders)


def weight_of_form(action, form):
    """Common weight of a homogeneous form, as an engine `Weight` read off
    the raw matrix (dx_i weighs as x_i); the zero form has weight zero,
    and a form mixing two weights raises an `InhomogeneityError` naming
    them."""
    from invforms.action import Weight
    from invforms.errors import InhomogeneityError

    raw = action.weight_matrix, action.torus_rank, action.finite_orders
    found = None
    for I, exps, _ in form.terms():
        shifted = [e + (i in I) for i, e in enumerate(exps)]
        w = Weight(*brute_weight(*raw, shifted), action.finite_orders)
        if found is None:
            found = w
        elif w != found:
            raise InhomogeneityError(
                f"form mixes weights {found} and {w}", weight_a=found, weight_b=w
            )
    return zero_weight(action) if found is None else found


def is_horizontal(action, form):
    """Whether every torus contraction kills the form (the engine's
    `euler_contract`, checked in `test_euler.py`)."""
    from invforms.euler import EulerOperator, euler_contract

    return all(
        euler_contract(EulerOperator(action, j), form).is_zero
        for j in range(action.torus_rank)
    )


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


def monoid_symmetries(weight_matrix, torus_rank, finite_orders, n, bound, rays):
    """Every permutation p of range(n), as a tuple sending coordinate i
    to p[i], that maps the weight-zero monomials of each degree up to
    `bound` onto themselves and the vectors `rays` onto themselves;
    tried one by one over all n! permutations."""
    points = [
        set(brute_weight0_monomials(weight_matrix, torus_rank, finite_orders, n, d))
        for d in range(bound + 1)
    ]
    rays = {tuple(r) for r in rays}

    def moved(p, v):
        out = [0] * n
        for i, x in zip(p, v):
            out[i] = x
        return tuple(out)

    return {
        p
        for p in permutations(range(n))
        if all({moved(p, v) for v in vs} == vs for vs in (*points, rays))
    }


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


def in_relative_interior(vec, normals):
    """Whether a point of a cone is positive against all its facet normals."""
    return all(sum(map(mul, ell, vec)) > 0 for ell in normals)


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


@st.composite
def actions(draw, max_n=4, max_torus=2):
    """Small random actions: n <= max_n, torus rank <= max_torus, at most
    two finite factors of order <= 6, weights in [-3, 3]."""
    from invforms.action import make_action

    n = draw(st.integers(1, max_n))
    s = draw(st.integers(0, max_torus))
    orders = draw(st.lists(st.integers(2, 6), max_size=2))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=s + len(orders), max_size=s + len(orders)))
    return make_action(n, s, orders, rows)


def leading_term(terms):
    """(exps, coeff) of the largest term in (degree, exps) order."""
    key = max(terms, key=lambda e: (sum(e), e))
    return key, terms[key]


def exact_div(p, q):
    """Exact quotient p/q of Polynomials; raises if the division is not exact."""
    from invforms.poly import Polynomial

    if q.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    de, dc = leading_term(q.terms)
    rem = dict(p.terms)
    out = {}
    while rem:
        re, rc = leading_term(rem)
        qe = tuple(a - b for a, b in zip(re, de))
        if any(e < 0 for e in qe):
            raise ArithmeticError("inexact polynomial division")
        qc = out[qe] = rc / dc
        for e, c in q.terms.items():
            key = tuple(a + b for a, b in zip(qe, e))
            left = rem.get(key, 0) - qc * c
            if left:
                rem[key] = left
            else:
                del rem[key]
    return Polynomial(p.n, out)


def polynomial_matrix_rank(rows):
    """Rank over the rational function field of a matrix of Polynomials.

    Fraction-free Bareiss elimination; the divisions by the previous
    pivot are exact, so all arithmetic stays polynomial.  This is the
    generic rank of the matrix, an oracle for module ranks.
    """
    from invforms.poly import Polynomial

    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    m, ncols = len(mat), len(mat[0])
    rank = 0
    prev = None
    for col in range(ncols):
        piv = None
        for i in range(rank, m):
            if not mat[i][col].is_zero:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank][col]
        for i in range(rank + 1, m):
            for j in range(col + 1, ncols):
                num = p * mat[i][j] - mat[i][col] * mat[rank][j]
                mat[i][j] = num if prev is None else exact_div(num, prev)
            mat[i][col] = Polynomial.zero(p.n)
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def wedge_candidates(action, basis, k):
    """(sum of the subset, wedge) for each k-subset of the basis whose
    wedge of differentials d(x^g) is nonzero, by PolyForm arithmetic."""
    from invforms.forms import PolyForm
    from invforms.poly import Polynomial

    n = action.n
    diffs = [
        PolyForm.from_poly(Polynomial.monomial(n, g)).d() for g in basis.generators
    ]
    if k == 0:
        return [((0,) * n, PolyForm.from_poly(Polynomial.constant(n, 1)))]
    out = []
    for combo in combinations(range(len(diffs)), k):
        w = diffs[combo[0]]
        for t in combo[1:]:
            w = w.wedge(diffs[t])
            if w.is_zero:
                break
        if not w.is_zero:
            m = tuple(sum(basis.generators[t][i] for t in combo) for i in range(n))
            out.append((m, w))
    return out


def piecewide_cokernel_table(action, k, bound, basis):
    """(cokernel table rows, witness) of the pullback in form degree k,
    with every (degree, weight-zero) piece reduced as one system.

    The image piece is spanned by x^e w for every nonzero candidate
    wedge w; the target is the common kernel of the torus contractions
    on the piece; the witness is the first kernel vector of the pairing
    between image rows and the target's canonical kernel basis.
    """
    from invforms.euler import EulerOperator, euler_contract
    from invforms.forms import PolyForm
    from invforms.linalg import echelon_of
    from invforms.pieces import form_to_vector, piece_keys

    n = action.n
    w0 = zero_weight(action)
    wedges = [
        (sum(m), list(w.terms())) for m, w in wedge_candidates(action, basis, k)
    ]
    ops = [EulerOperator(action, j) for j in range(action.torus_rank)]
    raw = action.weight_matrix, action.torus_rank, action.finite_orders, n
    shifts = [brute_weight0_monomials(*raw, e) for e in range(bound + 1)]
    rows = []
    witness = None
    for d in range(bound + 1):
        keys = piece_keys(action, k, d, w0)
        if not keys:
            rows.append((d, 0, 0, 0))
            continue
        positions = {key: i for i, key in enumerate(keys)}
        tgt_keys = piece_keys(action, k - 1, d, w0) if k else []
        tgt_positions = {key: i for i, key in enumerate(tgt_keys)}
        equations = [[0] * len(keys) for _ in range(len(ops) * len(tgt_keys))]
        for b, (I, exps) in enumerate(keys):
            f = PolyForm.monomial_form(n, exps, I)
            for j, op in enumerate(ops):
                img = euler_contract(op, f)
                coords = form_to_vector(img, tgt_positions, len(tgt_keys))
                for i, c in enumerate(coords):
                    equations[j * len(tgt_keys) + i][b] = c
        target = echelon_of(map(int_row, equations), len(keys)).kernel_basis()
        image = []
        for dw, terms in wedges:
            for e in shifts[d - dw] if dw <= d else ():
                row = [0] * len(keys)
                for I, exps, c in terms:
                    row[positions[(I, tuple(a + b for a, b in zip(exps, e)))]] = c
                image.append(int_row(row))
        image_rows = echelon_of(image, len(keys)).rows
        coker = len(target) - len(image_rows)
        rows.append((d, len(target), len(image_rows), coker))
        if coker > 0 and witness is None:
            cond = [[sum(map(mul, t, r)) for t in target] for r in image_rows]
            c = echelon_of(cond, len(target)).kernel_basis()[0]
            vec = [sum(x * t[j] for x, t in zip(c, target)) for j in range(len(keys))]
            witness = vector_to_form(n, k, vec, keys)
    return tuple(rows), witness


def vector_to_form(n, k, vec, keys):
    """The form with coordinates `vec` in the piece basis `keys`."""
    from invforms.forms import PolyForm
    from invforms.poly import Polynomial

    comps = {}
    for (I, exps), c in zip(keys, vec):
        if c:
            comps.setdefault(I, {})[exps] = c
    return PolyForm(n, k, {I: Polynomial(n, t) for I, t in comps.items()})


def _euler_rows(action, keys, tgt_positions, torus_indices):
    """Rows of the stacked contraction maps on one piece (one row per
    source basis element, concatenated target blocks)."""
    from invforms.euler import EulerOperator, euler_contract
    from invforms.forms import PolyForm
    from invforms.pieces import form_to_vector

    ncols = len(tgt_positions)
    rows = []
    for I, exps in keys:
        blocks = []
        for j in torus_indices:
            op = EulerOperator(action, j)
            img = euler_contract(op, PolyForm.monomial_form(action.n, exps, I))
            blocks.extend(form_to_vector(img, tgt_positions, ncols))
        rows.append(blocks)
    return rows


def _unit(ncols, i):
    v = [0] * ncols
    v[i] = 1
    return v


def contraction_homology(weight_matrix, torus_index, n, d):
    """(dims, homology) of the contraction complex of torus row
    `torus_index` in total degree d, summed over every weight, with no
    restriction: a closed form over supports.

    For d >= 1, each of the C(d-1, |S|-1) monomials of degree d with
    support S, S nonempty, spans C(|S|, k) forms of form degree k at
    its lattice point.  There the complex is the Koszul complex of the
    row restricted to S: exact unless that restriction vanishes, and
    then every differential is zero.  In degree 0 only the constant is
    left, and no row contracts it.
    """
    dims = [0] * (n + 1)
    homology = [0] * (n + 1)
    if d == 0:
        dims[0] = homology[0] = 1
        return tuple(dims), tuple(homology)
    row = weight_matrix[torus_index]
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            points = comb(d - 1, size - 1)
            dead = not any(row[i] for i in S)
            for k in range(size + 1):
                dims[k] += points * comb(size, k)
                if dead:
                    homology[k] += points * comb(size, k)
    return tuple(dims), tuple(homology)


def piecewide_homology(action, weight, degree, restrict, torus_index):
    """(dims, homology) of the contraction complex on one (degree,
    weight) piece, with each form degree reduced as one system.

    With `restrict`, the complex is the common kernel of the other
    torus contractions, and zero unless the weight's other torus and
    finite components vanish; the homology is read off the ranks of
    the distinguished contraction on it.
    """
    from invforms.euler import EulerOperator, euler_contract
    from invforms.linalg import Echelon, echelon_of
    from invforms.pieces import form_to_vector, piece_keys

    n = action.n
    op = EulerOperator(action, torus_index)
    others = [j for j in range(action.torus_rank) if j != torus_index]
    invariant_ok = not restrict or not (
        any(w for j, w in enumerate(weight.torus) if j != torus_index)
        or any(weight.finite)
    )
    piece = {}
    for k in range(n + 1):
        if not invariant_ok:
            piece[k] = ([], [])
            continue
        keys = piece_keys(action, k, degree, weight)
        tgt_keys = piece[k - 1][0] if k else []
        if restrict and others and keys and tgt_keys:
            tgt_positions = {key: i for i, key in enumerate(tgt_keys)}
            rows = _euler_rows(action, keys, tgt_positions, others)
            equations = [
                int_row([rows[b][i] for b in range(len(keys))])
                for i in range(len(rows[0]))
            ]
            vectors = echelon_of(equations, len(keys)).kernel_basis()
        else:
            vectors = [_unit(len(keys), i) for i in range(len(keys))]
        piece[k] = (keys, vectors)

    ranks = [0] * (n + 2)  # ranks[k] = rank of e on the degree-k subspace
    for k in range(1, n + 1):
        keys, vectors = piece[k]
        if not vectors:
            continue
        tgt_keys = piece[k - 1][0]
        tgt_positions = {key: i for i, key in enumerate(tgt_keys)}
        ech = Echelon(max(len(tgt_keys), 1))
        for v in vectors:
            img = euler_contract(op, vector_to_form(n, k, v, keys))
            ech.insert(
                int_row(form_to_vector(img, tgt_positions, max(len(tgt_keys), 1)))
            )
        ranks[k] = ech.rank

    dims = tuple(len(piece[k][1]) for k in range(n + 1))
    homology = tuple(
        dims[k] - ranks[k] - ranks[k + 1] if k < n else dims[k] - ranks[k]
        for k in range(n + 1)
    )
    return dims, homology


def subring_series(generators, n, truncation):
    """Per-degree counts of the monomials that are sums of the exponent
    vectors `generators`, degrees 0..truncation (closure under sums)."""
    reach = [set() for _ in range(truncation + 1)]
    reach[0].add((0,) * n)
    for d in range(1, truncation + 1):
        for g in generators:
            if sum(g) <= d:
                for s in reach[d - sum(g)]:
                    reach[d].add(tuple(a + b for a, b in zip(s, g)))
    return tuple(len(r) for r in reach)


def singular_codimension(hilbert_basis, n):
    """codim Y_sing of Y = Spec Q[M], M the saturated monoid with this
    Hilbert basis in N^n; None when Y is smooth.

    The cone of M is the orthant cut by a linear space, so its faces F
    are its meets with {x_Z = 0}, Z a set of coordinates.  Take Z to be
    every coordinate of the support U of M that vanishes on F.  The
    torus orbit of F has codimension dim M - dim F, and Y is smooth
    along it iff the localization {v in gp M : v_Z >= 0} is free.  Its
    pointed part is the projection of M to Z, a saturated monoid whose
    Hilbert basis is the componentwise-minimal nonzero projections h|_Z:
    the orbit is singular iff there are more of them than its rank
    (Cox–Little–Schenck, Toric Varieties, §1.3 and §3.2).
    """
    U = sorted({i for h in hilbert_basis for i, x in enumerate(h) if x})
    dim = frac_rank(hilbert_basis)
    best = None
    seen = set()
    for r in range(len(U) + 1):
        for W in combinations(U, r):
            face = [h for h in hilbert_basis if not any(h[i] for i in W)]
            Z = tuple(i for i in U if not any(h[i] for h in face))
            if Z in seen:
                continue
            seen.add(Z)
            codim = dim - frac_rank(face)
            shadows = {tuple(h[i] for i in Z) for h in hilbert_basis}
            shadows.discard((0,) * len(Z))
            minimal = [
                p for p in shadows
                if not any(q != p and all(map(le, q, p)) for q in shadows)
            ]
            if len(minimal) > codim and (best is None or codim < best):
                best = codim
    return best


def certified_basis(grading):
    """The whole Hilbert basis: the monoid scan up to the certificate bound."""
    from invforms.invariants import hilbert_basis

    bound = max(grading.certificate_bound(), 1)
    return hilbert_basis(grading.action, bound, grading)


def monoid_is_free(rays, weight_matrix, torus_rank, finite_orders):
    """Whether the saturated monoid M = C ∩ L is free, from the least
    points `rays` of M on the extremal rays of its cone C (L is the
    lattice of weight-zero exponents).

    M is free iff C has dim C rays and their generators G are a basis
    of L ∩ span C (Cox–Little–Schenck, Toric Varieties, §1.3).  G spans
    a sublattice of finite index there, and of index D in Z^n ∩ span C,
    D the gcd of the maximal minors of G; so the index is 1 iff for no
    prime p dividing D is some (y G) / p, y nonzero mod p, an integer
    point of L.  Such y are the kernel of G mod p, found by elimination
    over Z/p.
    """
    r = frac_rank(rays)
    if len(rays) != r:
        return False
    n = len(rays[0]) if rays else 0
    index = 0
    for cols in combinations(range(n), r):
        index = gcd(index, int(frac_det([[g[j] for j in cols] for g in rays])))
    p = 2
    while index > 1:
        if index % p:
            p += 1
            continue
        while index % p == 0:
            index //= p
        for y in _span_mod(_kernel_mod(rays, p), p):
            x = [sum(c * g[j] for c, g in zip(y, rays)) // p for j in range(n)]
            if brute_weight(weight_matrix, torus_rank, finite_orders, x) == (
                (0,) * torus_rank,
                (0,) * len(finite_orders),
            ):
                return False
    return True


def _kernel_mod(rows, p):
    """A basis of {y : sum of y_i rows[i] = 0 mod p}, by reduced echelon
    form of the columns over Z/p."""
    r = len(rows)
    mat = [[row[j] % p for row in rows] for j in range(len(rows[0]))]
    pivots = []
    for c in range(r):
        piv = next((i for i in range(len(pivots), len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        top = len(pivots)
        mat[top], mat[piv] = mat[piv], mat[top]
        inv = pow(mat[top][c], -1, p)
        mat[top] = [x * inv % p for x in mat[top]]
        for i in range(len(mat)):
            if i != top and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[top])]
        pivots.append(c)
    basis = []
    for free in range(r):
        if free not in pivots:
            y = [0] * r
            y[free] = 1
            for row, c in zip(mat, pivots):
                y[c] = -row[free] % p
            basis.append(y)
    return basis


def _span_mod(basis, p):
    """The nonzero vectors of the span of `basis` over Z/p, entries in [0, p)."""
    for coeffs in product(range(p), repeat=len(basis)):
        if any(coeffs):
            yield [
                sum(c * v[i] for c, v in zip(coeffs, basis)) % p
                for i in range(len(basis[0]))
            ]


def dominated(gens, m):
    """The vectors of the block vectors (point, vector) in `gens` whose
    point is <= m componentwise, in order: a scan over every generator."""
    return [vec for point, vec in gens if all(map(le, point, m))]


def block_span(gens, m, ncols, full):
    """Echelon of the block vectors (point, vector) in `gens` whose point
    is <= m componentwise: the block at m of the module they generate.

    Multiplying by x^(m - point) moves a block vector to block m without
    changing its coordinates.  Insertion stops once the rank is `full`.
    """
    from invforms.linalg import Echelon

    ech = Echelon(ncols)
    for vec in dominated(gens, m):
        if ech.rank == full:
            break
        ech.insert(int_row(vec))
    return ech


def unsaturated_form_generators(action, k, horizontal, bound):
    """(generator blocks, generator degrees) of the invariant k-form
    module, each block spanned from scratch: a candidate of the
    canonical block basis is a generator exactly when the generators
    of lower degree do not reach it."""
    from math import comb
    from operator import itemgetter

    from invforms.euler import horizontal_block, torus_rows
    from invforms.pieces import Grading, block_key, support

    n = action.n
    grading = Grading(action)
    w0 = zero_weight(action)
    rows = torus_rows(action) if horizontal else ()
    bases = {}
    blocks = []
    degrees = []
    for d in range(k, bound + 1):
        found = []
        for m in grading.buckets(d).get(w0, ()):
            s = support(m)
            if len(s) < k:
                continue
            if s not in bases:
                bases[s] = horizontal_block(n, k, s, rows)
            ech = block_span(blocks, m, comb(n, k), len(bases[s]))
            for v in bases[s]:
                if ech.insert(v) is not None:
                    found.append((block_key(n, k, m, v), m, v))
        found.sort(key=itemgetter(0))
        blocks.extend((m, v) for _, m, v in found)
        degrees.extend(d for _ in found)
    return tuple(blocks), tuple(degrees)


def unsaturated_series_of(action, k, generator_blocks, truncation):
    """Per-degree weight-zero dimensions of the module of k-forms that
    the (point, block vector) generators span, every block spanned from
    scratch."""
    from math import comb

    from invforms.pieces import Grading, support

    grading = Grading(action)
    w0 = zero_weight(action)
    ncols = comb(action.n, k)
    return tuple(
        sum(
            block_span(generator_blocks, m, ncols, comb(len(support(m)), k)).rank
            for m in grading.buckets(d).get(w0, ())
            if len(support(m)) >= k
        )
        for d in range(truncation + 1)
    )


def normalize_row(row):
    """Divide by the content and make the leading nonzero entry positive."""
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
    if g == 0:
        return list(row)
    lead = next(x for x in row if x)
    if lead < 0:
        g = -g
    return [x // g for x in row]


def reduce_row(row, rows, pivots):
    """Eliminate `row` against echelon `rows` (pivot columns `pivots`),
    dividing out the content after every step; normalized."""
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
    """A row of Fractions or ints scaled by its least common denominator
    to a row of ints (`Echelon` takes integer rows)."""
    den = 1
    for x in row:
        den = lcm(den, Fraction(x).denominator)
    return [int(x * den) for x in row]


class ReferenceEchelon:
    """The engine's former incremental reduced echelon form."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def residual(self, row):
        return reduce_row(int_row(row), self.rows, self.pivots)

    def insert(self, row):
        red = self.residual(row)
        lead = next((j for j, x in enumerate(red) if x), -1)
        if lead < 0:
            return None
        pos = bisect_left(self.pivots, lead)
        self.rows.insert(pos, red)
        self.pivots.insert(pos, lead)
        for i in range(pos):
            r = self.rows[i]
            c = r[lead]
            if c:
                self.rows[i] = normalize_row(
                    [red[lead] * x - c * y for x, y in zip(r, red)]
                )
        return lead

    def kernel_basis(self):
        """One primitive kernel vector per free column, ascending, with a
        positive free coordinate; solved over Fractions."""
        basis = []
        for f in range(self.ncols):
            if f in self.pivots:
                continue
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for r, p in zip(self.rows, self.pivots):
                vec[p] = Fraction(-r[f], r[p])
            vec = int_row(vec)
            g = gcd(*vec)
            basis.append([x // g for x in vec])
        return basis


def dense_wedge_candidates(action, basis, k):
    """The engine's former `_wedge_candidates`, uncapped: each
    (j + 1)-minor of v ∧ g summed over every term,
    (v ∧ g)_K = sum_r (-1)^(j-r) g[K_r] v_(K minus K_r)."""
    n = action.n
    gens = basis.generators
    steps = []
    for j in range(k):
        place = {J: p for p, J in enumerate(combinations(range(n), j))}
        steps.append([
            [((-1) ** (j - r), i, place[K[:r] + K[r + 1 :]]) for r, i in enumerate(K)]
            for K in combinations(range(n), j + 1)
        ])
    out = []

    def extend(first, m, vec, j):
        if j == k:
            out.append((m, vec))
            return
        for t in range(first, len(gens) - k + j + 1):
            g = gens[t]
            nxt = [sum(s * g[i] * vec[p] for s, i, p in terms) for terms in steps[j]]
            if any(nxt):
                extend(t + 1, tuple(map(add, m, g)), nxt, j + 1)

    extend(0, (0,) * n, [1], 0)
    return out
