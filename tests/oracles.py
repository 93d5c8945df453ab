"""Independent brute-force oracles for the test suite.

Nothing here may call into the engine's linear algebra or enumeration
helpers: ranks are naive Gaussian elimination over Fractions, monomial
enumeration goes through itertools.product, weights are recomputed
from the raw matrix.  The exceptions are `piecewide_cokernel_table`
and `piecewide_homology`, the engine's former piece-wide routes, kept
to check the block routes against: they read piece bases from
`piece_keys` and reduce with `Echelon`, both checked against brute
force in their own tests.  Likewise `unsaturated_form_generators` and
`unsaturated_series_of` are the engine's former block sweeps, which
span every block from scratch and read their points off
`Grading.buckets`.
"""

from fractions import Fraction
from itertools import combinations, product
from operator import mul

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
    from invforms.action import zero_weight
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
        target = echelon_of(equations, len(keys)).kernel_basis()
        image = []
        for dw, terms in wedges:
            for e in shifts[d - dw] if dw <= d else ():
                row = [0] * len(keys)
                for I, exps, c in terms:
                    row[positions[(I, tuple(a + b for a, b in zip(exps, e)))]] = c
                image.append(row)
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
                [rows[b][i] for b in range(len(keys))] for i in range(len(rows[0]))
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
            ech.insert(form_to_vector(img, tgt_positions, max(len(tgt_keys), 1)))
        ranks[k] = ech.rank

    dims = tuple(len(piece[k][1]) for k in range(n + 1))
    homology = tuple(
        dims[k] - ranks[k] - ranks[k + 1] if k < n else dims[k] - ranks[k]
        for k in range(n + 1)
    )
    return dims, homology


def unsaturated_form_generators(action, k, horizontal, bound):
    """(generator blocks, generator degrees) of the invariant k-form
    module, each block spanned from scratch: a candidate of the
    canonical block basis is a generator exactly when the generators
    of lower degree do not reach it."""
    from math import comb
    from operator import itemgetter

    from invforms.action import zero_weight
    from invforms.euler import horizontal_block, torus_rows
    from invforms.pieces import Grading, block_key, block_span, support

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

    from invforms.action import zero_weight
    from invforms.pieces import Grading, block_span, support

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
