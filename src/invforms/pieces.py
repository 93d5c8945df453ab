"""Finite-dimensional graded pieces of form modules.

Every module in the engine is a direct sum of (total degree, weight)
pieces; a piece of the k-forms has the monomial basis x^a dx_I with
|a| + k = degree and matching weight, ordered by (I, a) lexicographic.
That order is the canonical coordinate system used everywhere.

Pieces are read off lattice points.  The fine degree of x^a dx_I is
m = a + e_I, and its weight is the weight of the monomial x^m, so the
basis of the (degree, weight) piece of the k-forms is

    {(I, m - e_I) : |m| = degree, x^m of that weight, I ⊆ supp m, |I| = k}.

A `Grading` lists each degree's monomials once, bucketed by weight, and
every piece, weight list and monomial list is read from its buckets.
A Grading lives for one public call: `report.run_analysis` and
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


def monomials_with_weight(action, d, weight, grading=None):
    """Exponent tuples of degree d whose monomial has the given weight."""
    if grading is None:
        grading = Grading(action)
    return list(grading.buckets(d).get(weight, ()))


# No engine path reads whole pieces: `piece_keys` and `form_to_vector`
# are kept for perfbench/, which traces them, and the tests' oracles.
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
    """Lattice points of the (degree, weight) piece with a nonzero block
    of k-forms (|supp m| >= k), ascending."""
    if k < 0:
        return []
    return [
        m for m in grading.buckets(degree).get(weight, ()) if len(support(m)) >= k
    ]


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
