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
"""

from itertools import combinations
from operator import add

from invforms.action import weight_of_exponents
from invforms.cones import hilbert_certificate_bound
from invforms.errors import StructuralError
from invforms.forms import PolyForm
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
            raise _outside(I, exps) from None
    return vec


def _outside(I, exps):
    return StructuralError(f"term x^{exps} dx_{I} lies outside the requested piece")


def shifted_rows(action, gens, degree, weight, positions, grading):
    """Yield the coordinate rows of x^e * g in one piece of a module.

    `gens` lists (degree, weight, terms) per generator g, with `terms`
    its (I, exps, coeff) list; e runs over the exponents of the
    complementary degree and weight, ascending.  Each row is g's terms
    shifted by e, written straight into the piece's coordinates
    {(I, exps): column}.  Rows are yielded one at a time, as a piece
    can have thousands of them.
    """
    ncols = len(positions)
    for dg, wg, terms in gens:
        mult = degree - dg
        if mult < 0:
            continue
        for e in monomials_with_weight(action, mult, weight - wg, grading):
            row = [0] * ncols
            for I, exps, c in terms:
                key = (I, tuple(map(add, exps, e)))
                try:
                    row[positions[key]] = c
                except KeyError:
                    raise _outside(*key) from None
            yield row


def vector_to_form(n, k, vec, keys):
    comps = {}
    for (I, exps), c in zip(keys, vec):
        if c:
            comps.setdefault(I, {})[exps] = c
    return PolyForm(n, k, {I: Polynomial(n, t) for I, t in comps.items()})

