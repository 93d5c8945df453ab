"""Finite-dimensional graded pieces of form modules.

Every module in the engine is a direct sum of (total degree, weight)
pieces; a piece of the k-forms has the monomial basis x^a dx_I with
|a| + k = degree and matching weight, ordered by (I, a) lexicographic.
That order is the canonical coordinate system used everywhere.

Pieces are read off lattice points.  The fine degree of x^a dx_I is
m = a + e_I, and its weight is the weight of the monomial x^m, so the
basis of the (degree, weight) piece of the k-forms is

    {(I, m - e_I) : |m| = degree, x^m of that weight, I ⊆ supp m, |I| = k}.

A `Grading` lists each degree's lattice points once.  The analysis
reads only weight zero, the monoid M of the quotient Y = Spec Q[M].
`weight_zero(d)` walks the coordinates in ascending lexicographic order
and drops a branch once no split of the remaining degree over the later
coordinates can bring a torus partial sum back to 0: each later
coordinate adds between the least and the largest of its row's
remaining entries per unit of degree.  The finite rows are tested at
the leaf.  This is the degree-bounded enumeration inside a cone of
Bruns–Ichim (Normaliz, J. Algebra 324 (2010)).  Each point is listed
with its support.  The homology path and the pieces of other weights
read `buckets(d)`, every monomial of degree d grouped by weight.  A
Grading lives for one public call: `report.run_analysis` and
`euler.homology_all_weights` make one and pass it down, and a function
called on its own without one makes its own.  Nothing is kept between
calls.

Each piece splits further into blocks, one per lattice point m: the
forms x^(m - e_I) dx_I, I ⊆ supp m, span Λ^k(Q^(supp m)).  The wedge,
the Euler contractions and multiplication by monomials x^e (which maps
block m to block m + e) all respect this splitting, so modules over the
invariant ring are handled block by block.  A block vector has one
coordinate per k-subset of range(n) (`exterior_basis`), zero off the
subsets of supp m, so a block never has more than C(n, k) columns.
Reduced echelon forms, kernel bases and the piece order of a block
vector (`block_key`) are those of the piece restricted to the block.

Blocks saturate up the monoid.  The block at m of a module generated
by block vectors at points p is spanned by the generators with p <= m,
moved to m unchanged.  Let q <= m be weight-zero points with
supp q = supp m.  Then x^(m - q) is invariant and moves the block at q
into the block at m, and both lie in Λ^k(Q^(supp m)), so they share
one cap (the rank `block_span` stops at).  Once the block at q reaches
its cap, so has the block at every such m: a `Saturation` records q
under its support, and a later m that dominates it takes the cap
without a `block_span`.  A check on the rank at m, such as the
horizontality check of `pullback.surjectivity_check`, would see the
same numbers as it saw at q.
"""

from itertools import combinations
from operator import le

from invforms.action import weight_of_exponents
from invforms.cones import hilbert_certificate_bound
from invforms.errors import StructuralError
from invforms.forms import PolyForm
from invforms.linalg import Echelon
from invforms.poly import Polynomial


class Grading:
    """Monomials of one action by degree and weight, for one call.

    It also keeps the call's certificate bound and, in `monoid`, its
    Hilbert-basis scan (see `invariants.monoid_basis`).
    """

    def __init__(self, action):
        self.action = action
        self.monoid = None
        self._certificate = None
        self._buckets = {}
        self._weight_zero = {}

    def weight_zero(self, d):
        """[(m, supp m)] for the weight-zero exponents m of degree d,
        ascending; the same points as `buckets(d)` at weight zero."""
        got = self._weight_zero.get(d)
        if got is None:
            got = self._weight_zero[d] = weight_zero_points(self.action, d)
        return got

    def buckets(self, d):
        """{weight: exponents of degree d with that weight}; weights in
        ascending (torus, finite) order, exponents ascending."""
        got = self._buckets.get(d)
        if got is None:
            groups = {}
            for exps in monomials_of_degree(self.action.n, d):
                w = weight_of_exponents(self.action, exps)
                groups.setdefault(w, []).append(exps)
            order = sorted(groups, key=lambda w: (w.torus, w.finite))
            got = self._buckets[d] = {w: groups[w] for w in order}
        return got

    def certificate_bound(self):
        """`cones.hilbert_certificate_bound`, computed once per Grading."""
        if self._certificate is None:
            self._certificate = hilbert_certificate_bound(self.action)
        return self._certificate


def monomials_of_degree(n, d):
    """All exponent tuples of total degree d, ascending lexicographic."""
    if d < 0:
        return []
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        for rest in monomials_of_degree(n - 1, d - first):
            out.append((first,) + rest)
    out.sort()
    return out


def weight_zero_points(action, d):
    """(m, supp m) for every weight-zero exponent vector m of degree d,
    ascending lexicographic (see the module docstring)."""
    n = action.n
    torus = [action.torus_row(j) for j in range(action.torus_rank)]
    orders = action.finite_orders
    finite = [action.finite_row(j) for j in range(len(orders))]
    if d < 0 or any(d * min(row) > 0 or d * max(row) < 0 for row in torus):
        return []
    if n == 1:
        if any(d * row[0] % m for row, m in zip(finite, orders)):
            return []
        return [((d,), (0,) if d else ())]
    last = n - 1
    # per coordinate i < last and torus row: (entry at i, least and
    # largest entry after i), and the columns at i
    ranges = [
        [(row[i], min(row[i + 1 :]), max(row[i + 1 :])) for row in torus]
        for i in range(last)
    ]
    cols = [[row[i] for row in torus] for i in range(last)]
    fcols = [[row[i] for row in finite] for i in range(last)]
    tail = [(row[last - 1], row[last], m) for row, m in zip(finite, orders)]
    out = []

    def walk(i, r, sums, residues, prefix, supp):
        lo, hi = 0, r
        for (w, least, most), p in zip(ranges[i], sums):
            # the degree a at i must keep r' least <= -(p + a w) <= r' most
            # for r' = r - a, linear in a on both sides
            c, b = w - least, -(p + r * least)
            if c > 0:
                hi = min(hi, b // c)
            elif c < 0:
                lo = max(lo, -(-b // c))
            elif b < 0:
                return
            c, b = w - most, -(p + r * most)
            if c > 0:
                lo = max(lo, -(-b // c))
            elif c < 0:
                hi = min(hi, b // c)
            elif b > 0:
                return
        if i < last - 1:
            for a in range(lo, hi + 1):
                walk(
                    i + 1,
                    r - a,
                    [p + a * w for p, w in zip(sums, cols[i])],
                    [f + a * w for f, w in zip(residues, fcols[i])],
                    prefix + (a,),
                    supp + (i,) if a else supp,
                )
            return
        # x_last takes the rest; at i = last - 1 the least and largest
        # entries are both row[last], so the torus sums vanish
        for a in range(lo, hi + 1):
            rest = r - a
            for f, (w, v, m) in zip(residues, tail):
                if (f + a * w + rest * v) % m:
                    break
            else:
                s = supp + (i,) if a else supp
                out.append((prefix + (a, rest), s + (last,) if rest else s))

    walk(0, d, [0] * len(torus), [0] * len(finite), (), ())
    return out


# No engine path reads whole pieces or monomial lists: `piece_keys`,
# `form_to_vector` and `monomials_with_weight` are kept for perfbench/,
# which traces them, and the tests.
def monomials_with_weight(action, d, weight, grading=None):
    """Exponent tuples of degree d whose monomial has the given weight."""
    if grading is None:
        grading = Grading(action)
    return list(grading.buckets(d).get(weight, ()))


def piece_keys(action, k, degree, weight, grading=None):
    """Canonical (I, exps) basis of the (degree, weight) piece of the k-forms."""
    if k < 0 or k > action.n or degree < k:
        return []
    if grading is None:
        grading = Grading(action)
    keys = []
    for m in grading.buckets(degree).get(weight, ()):
        support = [i for i, x in enumerate(m) if x]
        for I in combinations(support, k):
            exps = list(m)
            for i in I:
                exps[i] -= 1
            keys.append((I, tuple(exps)))
    keys.sort()
    return keys


def form_to_vector(form, positions, ncols):
    """Coordinates of a form in a piece basis given by {(I, exps): column}."""
    vec = [0] * ncols
    for I, exps, c in form.terms():
        try:
            vec[positions[(I, exps)]] = c
        except KeyError:
            raise StructuralError(
                f"term x^{exps} dx_{I} lies outside the requested piece"
            ) from None
    return vec


# -- lattice-point blocks -------------------------------------------------


def exterior_basis(n, k):
    """The coordinates of a block of the k-forms: k-subsets of range(n)."""
    return list(combinations(range(n), k))


def support(m):
    return tuple(i for i, x in enumerate(m) if x)


def block_points(grading, k, degree, weight):
    """(m, supp m) for the lattice points m of the (degree, weight)
    piece with a nonzero block of k-forms (|supp m| >= k), ascending."""
    if k < 0:
        return []
    if weight.is_zero:
        points = grading.weight_zero(degree)
    else:
        points = [(m, support(m)) for m in grading.buckets(degree).get(weight, ())]
    return [p for p in points if len(p[1]) >= k]


class Saturation:
    """Points whose block reached its cap, by support (see the module
    docstring); one per module and form degree."""

    def __init__(self):
        self._capped = {}

    def covers(self, m, supp):
        """Whether m dominates a recorded point of support `supp`."""
        points = self._capped.get(supp)
        return points is not None and any(all(map(le, q, m)) for q in points)

    def record(self, m, supp):
        self._capped.setdefault(supp, []).append(m)


def block_span(gens, m, ncols, full):
    """Echelon of the block vectors (point, vector) in `gens` whose point
    is <= m componentwise: the block at m of the module they generate.

    Multiplying by x^(m - point) moves a block vector to block m without
    changing its coordinates.  Insertion stops once the rank is `full`.
    """
    ech = Echelon(ncols)
    rank = 0
    for point, vec in gens:
        if rank == full:
            break
        if all(map(le, point, m)) and ech.insert(vec) is not None:
            rank += 1
    return ech


def block_key(n, k, m, vec):
    """Piece-basis key (I, m - e_I) of the last nonzero coordinate of a
    block vector: a kernel basis vector's free column, by which the
    piece orders its kernel basis."""
    last = max(j for j, c in enumerate(vec) if c)
    I = exterior_basis(n, k)[last]
    return I, _minus(m, I)


def block_form(n, k, m, vec):
    """The form with block vector `vec` at lattice point m."""
    comps = {}
    for I, c in zip(exterior_basis(n, k), vec):
        if c:
            comps[I] = Polynomial(n, {_minus(m, I): c})
    return PolyForm(n, k, comps)


def _minus(m, I):
    """The exponents m - e_I."""
    exps = list(m)
    for i in I:
        exps[i] -= 1
    return tuple(exps)
