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

from invforms.action import weight_of_exponents, weight_of_form
from invforms.cones import hilbert_certificate_bound
from invforms.errors import InhomogeneityError, StructuralError
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


def homogeneous_data(action, form):
    """(form degree, total degree, weight) of a homogeneous nonzero form."""
    degs = form.total_degrees()
    if len(degs) > 1:
        raise InhomogeneityError(
            f"form mixes total degrees {sorted(degs)}"
        )
    w = weight_of_form(action, form)
    return form.degree, (degs.pop() if degs else form.degree), w


def graded_piece_basis(generators, degree, weight, action):
    """Basis of one piece of the polynomial-ring span of the generators.

    Generators must share a form degree and be homogeneous; the result
    is the canonical reduced basis of the (degree, weight) component of
    the submodule they generate, as forms.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return []
    k = gens[0].degree
    for g in gens:
        if g.n != action.n:
            raise StructuralError(
                f"generator over {g.n} variables under an action on {action.n}"
            )
        if g.degree != k:
            raise StructuralError(
                f"generators mix form degrees {k} and {g.degree}"
            )
    grading = Grading(action)
    keys = piece_keys(action, k, degree, weight, grading)
    if not keys:
        return []
    positions = {key: i for i, key in enumerate(keys)}
    shifts = [homogeneous_data(action, g)[1:] + (list(g.terms()),) for g in gens]
    ech = Echelon(len(keys))
    for row in shifted_rows(action, shifts, degree, weight, positions, grading):
        ech.insert(row)
    return [vector_to_form(action.n, k, row, keys) for row in ech.rows]
