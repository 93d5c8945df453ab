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

Each weight-zero point m also has a packed key, one KEY_WIDTH-bit
field per coordinate, m_0 in the highest field and m_(n-1) in the
lowest, whose top bit is a guard bit left at 0.  Coordinates never
exceed the degree, and `weight_zero` raises `ResourceLimitError` at a
degree that would reach the guard bit, so with G the mask of the guard
bits (`Grading.guard`)

    key(p + q) = key(p) + key(q),
    p <= m  exactly when  ((key(m) | G) - key(p)) & G == G:

the field of coordinate i in (key(m) | G) - key(p) is
2^(KEY_WIDTH - 1) + m_i - p_i, which borrows from nothing and keeps its
guard bit exactly when m_i >= p_i.  Monoid addition and domination are
one integer operation, whatever the order of the fields.  With m_0
highest, the keys of one degree ascend numerically in the walk's
lexicographic order, so sorting keys sorts points.

Points above the certificate bound.  Once a monoid scan has passed the
certificate bound c (`cones.hilbert_certificate_bound`) it holds the
whole Hilbert basis, and every point m of M of a degree d > c is h + q
for a basis element h <= m and a point q = m - h of degree d - |h|
(Bruns–Ichim, J. Algebra 324 (2010): the points of a normal monoid are
the sums of its Hilbert basis).  `Grading.sums` lists such a degree as
the union over h of the keys of weight_zero(d - |h|) plus key(h),
sorted, and decodes each key to its point, instead of walking it.
Only the scan calls it, so a fresh Grading, and any degree listed
before the scan, is walked.

Blocks are lifted up the monoid.  The block at m of a module generated
by block vectors at points p is spanned by the generators with p <= m,
moved to m unchanged: multiplying by x^(m - p) keeps the coordinates
of a block vector.  Generators sit at weight-zero points, and weight
is additive, so m - p >= 0 has weight zero exactly when m does: the
weight-zero points of degree d that dominate p are exactly p + q for
q in weight_zero(d - |p|).  A `BlockModule` takes its generators
grouped by point: one entry (packed key, degree, [vectors]) per
generator point p, ascending by degree.  `grouped` builds them from
(point, vector) pairs, and a pullback image hands them over as it lists
its wedges (`pullback.PullbackImage.points`), so no wedge is packed or
grouped twice.  The module adds the keys of those q to the key of each
p, so each point p is looked up once per point m it lifts to.  Its
vectors are inserted into m's echelon as they are lifted, until the
block's rank reaches its cap, the most it can hold; later ones are
skipped unreduced.  This is the only place generators are reduced: a
module may hold dependent ones, as a pullback image does.  The order
of insertion does not matter: echelon rows are the canonical reduced
form of their span (`linalg`), and a block at its cap spans the whole
space that holds its generators.

Blocks saturate up the monoid.  Let q <= m be weight-zero points with
supp q = supp m.  Then x^(m - q) is invariant and moves the block at q
into the block at m, and both lie in the space whose dimension is the
cap of supp m (Λ^k(Q^(supp m)), or its horizontal block when every
generator is horizontal), so they share one cap.  Once the block at q
reaches its cap, so has the block at every such m: the `BlockModule`
records q under its support, and a later m that dominates it takes the
cap without being spanned.  The blocks of a degree are recorded when
the next degree is asked for, so a caller may first extend the echelon
at q, as `invariants.invariant_form_generators` does with its basis.

Orbits.  Let Sym be the group of coordinate permutations p (coordinate
i goes to p[i]) that map the scanned Hilbert basis onto itself and the
ray generators `Grading.rays` onto itself (`Grading.symmetry`,
`coordinate_symmetries`).  The first condition makes p map M onto
itself up to the scan's bound, since every point there is a sum of
scanned generators; the second makes p keep the cone.  Such a p maps
the k-subsets of wedge generators to k-subsets of wedge generators,
and d(x^g_1) ∧ ... ∧ d(x^g_k) to a signed permutation of its block
vector, dx_I going to ±dx_p(I), so the image block at p(m) is p of
the one at m.  The horizontal target at supp m is Λ^k of the torus
kernel restricted to supp m; m lies inside the face of the cone over
supp m, so that kernel is spanned by the rays with support in supp m,
and p carries it to the one at p(supp m).  Ranks, target dimensions
and caps are therefore constant on orbits, and a point is at its cap
exactly when its orbit images are.  With `orbits` set, a `BlockModule`
lists only the least point of each orbit in scan order
(`Grading.orbit_blocks`), and `Grading.orbit` gives each one's orbit
as (packed key, point, support) per point, the representative first.
When a representative reaches its cap, every orbit point is recorded
as capped.  A caller that needs the blocks themselves, such as the
cokernel witness, spans the block at each orbit point from the
generators that point dominates, as a pointwise sweep does.
"""

from functools import cached_property
from itertools import combinations, compress, repeat
from math import comb
from operator import itemgetter
from struct import Struct

from invforms.action import weight_of_exponents
from invforms.cones import hilbert_certificate_bound, ray_monoid_generators
from invforms.errors import ResourceLimitError, StructuralError
from invforms.forms import PolyForm
from invforms.linalg import Echelon
from invforms.poly import Polynomial

# Bits per coordinate of a packed key; the top one is the guard bit.
KEY_WIDTH = 16


class Grading:
    """Monomials of one action by degree and weight, for one call.

    Weight-zero points come with their packed keys and, per form
    degree, as the list of points with a nonzero block.  It also keeps
    in `rays` the least lattice point of M on each extremal ray of its
    cone (`cones.ray_monoid_generators`), from which the certificate
    bound, dim Y (in `dimension`, see `invariants.quotient_dimension`)
    and the canonical interior (`canonical.toric_canonical_series`) are
    read, and in `monoid` the Hilbert-basis scan at the call's bound
    (see `invariants.monoid_basis`).  The coordinate symmetries of the
    scan and the orbits of the weight-zero points under them are listed
    on first use (see the module docstring).  For the call's checks it
    holds the last level of wedges built (`wedges`, see
    `pullback.pullback_image`) and the horizontal target of each form
    degree and support (`targets`, see `euler.horizontal_target`).
    """

    def __init__(self, action):
        self.action = action
        self.monoid = None
        self.dimension = None
        # the guard bits of the packed keys (see the module docstring)
        self.guard = pack((1 << (KEY_WIDTH - 1),) * action.n)
        self._certificate = None
        self._buckets = {}
        self._points = None
        self._weight_zero = {}
        self._zero_blocks = {}
        self._symmetry = None  # (monoid scan, Sym, [p(m) getter])
        self._orbits = {}
        # representative: ((packed key, point, supp) per orbit point)
        self.orbit = {}
        # (monoid scan, k, k-wedges) of the last pullback image
        self.wedges = None
        # k: (k-subset index, torus rows, {supp: horizontal block})
        self.targets = {}

    def weight_zero(self, d):
        """[(m, supp m)] for the weight-zero exponents m of degree d,
        ascending; the same points as `buckets(d)` at weight zero."""
        return (self._weight_zero.get(d) or self._enumerate(d))[0]

    def weight_zero_keys(self, d):
        """The packed keys of `weight_zero(d)`, in the same order."""
        return (self._weight_zero.get(d) or self._enumerate(d))[1]

    def zero_blocks(self, k, d):
        """[(m, supp m, packed key)] for the weight-zero points of degree
        d with a nonzero block of k-forms (|supp m| >= k), ascending."""
        got = self._zero_blocks.get((k, d))
        if got is None:
            points = zip(self.weight_zero(d), self.weight_zero_keys(d))
            got = self._zero_blocks[k, d] = [
                (m, s, key) for (m, s), key in points if len(s) >= k
            ]
        return got

    def symmetry(self):
        """Sym of the call's scan, identity first: the coordinate
        permutations p (coordinate i goes to p[i]) that map the scanned
        Hilbert basis and `rays` each onto itself (see the module
        docstring).  Searched once per scan."""
        scan = self.monoid
        if self._symmetry is None or self._symmetry[0] is not scan:
            gens = scan.generators if scan else ()
            sym = coordinate_symmetries(self.action.n, (gens, self.rays))
            # p(m) reads m[i] at p[i], so it is m read at the inverse of p
            moves = [
                itemgetter(*sorted(range(len(p)), key=p.__getitem__))
                for p in sym[1:]
            ]
            self._symmetry = scan, sym, moves
            # cleared in place: a BlockModule holds `orbit`
            self._orbits.clear()
            self.orbit.clear()
        return self._symmetry[1]

    def orbit_blocks(self, k, d):
        """[(m, supp m, packed key)] for the Sym-orbit representatives of
        degree d with a nonzero block of k-forms, ascending; `orbit[m]`
        lists each one's orbit."""
        return [p for p in self._orbit_points(d) if len(p[1]) >= k]

    def _orbit_points(self, d):
        self.symmetry()
        got = self._orbits.get(d)
        if got is not None:
            return got
        moves = self._symmetry[2]
        points = self.weight_zero(d)
        keys = self.weight_zero_keys(d)
        index = {m: j for j, (m, _) in enumerate(points)}
        orbit = self.orbit
        seen = set()
        got = self._orbits[d] = []
        for j, (m, s) in enumerate(points):
            if j in seen:
                continue
            # the least point of its orbit in scan order
            members = dict.fromkeys([j, *(index[move(m)] for move in moves)])
            seen.update(members)
            orbit[m] = tuple((keys[i], *points[i]) for i in members)
            got.append((m, s, keys[j]))
        return got

    def sums(self, d, basis):
        """List degree d, unless it is listed already, as the sorted set
        of h + q over `basis`, [(packed key, degree)] of the whole
        Hilbert basis with every degree below d, and q in
        `weight_zero_keys(d - |h|)` (see the module docstring)."""
        if d in self._weight_zero:
            return
        check_degree(d)
        found = set()
        for h, e in basis:
            found.update(map(h.__add__, self.weight_zero_keys(d - e)))
        keys = sorted(found)
        points = unpack_keys(self.action.n, keys)
        self._weight_zero[d] = list(zip(points, map(support, points))), keys

    def _enumerate(self, d):
        check_degree(d)
        if self._points is None:
            self._points = weight_zero_enumerator(self.action)
        got = self._weight_zero[d] = self._points(d)
        return got

    def buckets(self, d):
        """{weight: exponents of degree d with that weight}; weights in
        ascending (torus, finite) order, exponents ascending."""
        got = self._buckets.get(d)
        if got is None:
            check_degree(d)
            groups = {}
            for exps in monomials_of_degree(self.action.n, d):
                w = weight_of_exponents(self.action, exps)
                groups.setdefault(w, []).append(exps)
            order = sorted(groups, key=lambda w: (w.torus, w.finite))
            got = self._buckets[d] = {w: groups[w] for w in order}
        return got

    @cached_property
    def rays(self):
        """`cones.ray_monoid_generators`, computed once per Grading."""
        return ray_monoid_generators(self.action)

    def certificate_bound(self):
        """`cones.hilbert_certificate_bound`, computed once per Grading."""
        if self._certificate is None:
            self._certificate = hilbert_certificate_bound(self.action, self.rays)
        return self._certificate


def coordinate_symmetries(n, vector_sets):
    """The permutations p of range(n), as tuples with coordinate i going
    to p[i], that map each set of integer vectors onto itself; the
    identity first.

    Each such p keeps, at every coordinate, the multiset of (set,
    degree, entry) over the vectors, so coordinate i is only sent to a
    coordinate with the same signature; when all signatures differ,
    only the identity is left and nothing is searched.  Otherwise p is
    built one coordinate at a time, and a partial p is dropped as soon
    as it fixes the image of a vector, all of whose support it has
    assigned, outside the vector's set (Margot, "Symmetry in integer
    linear programming", 2010; Bremner et al., "Computing symmetry
    groups of polyhedra", LMS J. Comput. Math. 17, 2014).  The choices
    ascend, so the identity, which passes every check, comes first."""
    sets = [[tuple(v) for v in vs] for vs in vector_sets]
    signature = [
        sorted((j, sum(v), v[i]) for j, vs in enumerate(sets) for v in vs)
        for i in range(n)
    ]
    choices = [
        [j for j in range(n) if signature[j] == signature[i]] for i in range(n)
    ]
    if all(len(c) == 1 for c in choices):
        return (tuple(range(n)),)
    # per coordinate i: (set, nonzero entries) of the vectors whose
    # support ends at i
    ending = [[] for _ in range(n)]
    for vs in sets:
        members = set(vs)
        for v in vs:
            entries = [(c, x) for c, x in enumerate(v) if x]
            if entries:
                ending[entries[-1][0]].append((members, entries))
    found = []

    def extend(p):
        i = len(p)
        if i == n:
            found.append(tuple(p))
            return
        for j in choices[i]:
            if j in p:
                continue
            p.append(j)
            for members, entries in ending[i]:
                image = [0] * n
                for c, x in entries:
                    image[p[c]] = x
                if tuple(image) not in members:
                    break
            else:
                extend(p)
            p.pop()

    extend([])
    return tuple(found)


def check_degree(d):
    """Fail on a degree past the packed keys before listing its points."""
    if d >= 1 << (KEY_WIDTH - 1):
        raise ResourceLimitError(
            f"degree {d} does not fit a {KEY_WIDTH}-bit packed "
            f"coordinate; degrees stop at {(1 << (KEY_WIDTH - 1)) - 1}"
        )


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
    return out


def pack(m):
    """The packed key of an exponent vector (see the module docstring)."""
    key = 0
    for x in m:
        key = key << KEY_WIDTH | x
    return key


def unpack_keys(n, keys):
    """The points with n coordinates whose packed keys are `keys`."""
    # one KEY_WIDTH = 16-bit field per coordinate, m_0 highest
    raw = map(int.to_bytes, keys, repeat(2 * n), repeat("big"))
    return list(map(Struct(f">{n}H").unpack, raw))


def weight_zero_enumerator(action):
    """The function d -> ([(m, supp m)], [packed key of m]) over the
    weight-zero exponent vectors m of degree d, ascending lexicographic
    (see the module docstring).  What depends only on the action is
    worked out here, once."""
    n = action.n
    torus = [action.torus_row(j) for j in range(action.torus_rank)]
    signs = [(min(row), max(row)) for row in torus]
    orders = action.finite_orders
    finite = [action.finite_row(j) for j in range(len(orders))]
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
    # the field of coordinate i, m_0 highest
    shifts = [KEY_WIDTH * (last - i) for i in range(n)]

    def points(d):
        if d < 0 or any(d * least > 0 or d * most < 0 for least, most in signs):
            return [], []
        if n == 1:
            if any(d * row[0] % m for row, m in zip(finite, orders)):
                return [], []
            return [((d,), (0,) if d else ())], [d]
        out = []
        keys = []

        def walk(i, r, sums, residues, prefix, supp, key):
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
                        key + (a << shifts[i]),
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
                    keys.append(key + (a << shifts[i]) + rest)

        walk(0, d, [0] * len(torus), [0] * len(finite), (), (), 0)
        return out, keys

    return points


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
    """Coordinates of a form in a piece basis given by {(I, exps): column};
    an integral coefficient is an int, so a form with integer
    coefficients gives a row `Echelon` takes as it is."""
    vec = [0] * ncols
    for I, exps, c in form.terms():
        try:
            vec[positions[(I, exps)]] = (
                c.numerator if c.denominator == 1 else c
            )
        except KeyError:
            raise StructuralError(
                f"term x^{exps} dx_{I} lies outside the requested piece"
            ) from None
    return vec


# -- lattice-point blocks -------------------------------------------------


def exterior_basis(n, k):
    """The coordinates of a block of the k-forms: k-subsets of range(n)."""
    return list(combinations(range(n), k))


def exterior_index(n, k):
    """{k-subset of range(n): its coordinate in `exterior_basis(n, k)`}."""
    return {I: j for j, I in enumerate(combinations(range(n), k))}


def support(m):
    return tuple(compress(range(len(m)), m))


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


class BlockModule:
    """The weight-zero blocks of the module of k-forms that block
    generators span over the invariant ring, lifted and saturated up the
    monoid one degree at a time (see the module docstring).  The
    generators come grouped by point, as `grouped` lists them.
    `cap(supp m)` is the largest rank of the block at m; it is asked
    once per support.  With `orbits`, only one point per orbit of
    `Grading.symmetry` is listed and spanned, which is exact only for a
    module that Sym maps onto itself, as it does a pullback image.
    """

    def __init__(self, grading, k, cap, points=(), orbits=False):
        self._grading = grading
        self._points = grading.orbit_blocks if orbits else grading.zero_blocks
        self._orbit = grading.orbit if orbits else None
        self._k = k
        self._cap = cap
        self._caps = {}  # support: cap
        self._ncols = comb(grading.action.n, k)
        # (packed key, degree, [vectors]) per generator point, ascending
        # by degree, as `grouped` lists them
        self._gens = list(points)
        self._capped = {}  # support: packed keys of points at their cap
        # key: (echelon, cap, supp, m) of the last degree's spanned points
        self._spanned = {}

    def add(self, m, vec):
        """Add a generator at m, of no lower degree than those held."""
        self._gens.append((pack(m), sum(m), [vec]))

    def blocks(self, d):
        """[(m, supp m, echelon or None)] for the points of degree d with
        a nonzero block, in `Grading.zero_blocks` order, or with `orbits`
        for the orbit representatives among them, in
        `Grading.orbit_blocks` order.  None marks a saturated point,
        whose block has rank cap(supp m); an open point gets an echelon
        into which the vectors of each generator point lifted to it are
        inserted in order while its rank is below the cap.  A
        representative's block stands for every point of its orbit,
        which `Grading.orbit[m]` lists.  Degrees must be asked for one
        after another, ascending."""
        guard = self._grading.guard
        capped = self._capped
        orbit = self._orbit
        for key, (ech, full, s, m) in self._spanned.items():
            if ech.rank != full:
                continue
            if orbit is None:
                capped.setdefault(s, []).append(key)
            else:
                # every point of the orbit is at its cap too
                for q, _, t in orbit[m]:
                    capped.setdefault(t, []).append(q)
        caps = self._caps
        out = []
        lifted = self._spanned = {}
        for m, s, key in self._points(self._k, d):
            top = key | guard
            for q in capped.get(s, ()):
                if (top - q) & guard == guard:
                    out.append((m, s, None))
                    break
            else:
                full = caps.get(s)
                if full is None:
                    full = caps[s] = self._cap(s)
                ech = Echelon(self._ncols)
                lifted[key] = ech, full, s, m
                out.append((m, s, ech))
        if lifted:
            zero_keys = self._grading.weight_zero_keys
            for p, deg, vecs in self._gens:
                if deg > d:
                    break
                for q in zero_keys(d - deg):
                    got = lifted.get(p + q)
                    if got is not None:
                        ech, full, _, _ = got
                        for vec in vecs:
                            if ech.rank == full:
                                break
                            ech.insert(vec)
        return out


def grouped(blocks):
    """The generators (m, vector) of `blocks` as a `BlockModule` takes
    them: (packed key, degree, [vectors]) per point m, ascending by
    degree, points of one degree and the vectors at each in the order
    of their first generator."""
    points = {}
    for m, vec in blocks:
        points.setdefault(m, []).append(vec)
    return sorted(
        ((pack(m), sum(m), vecs) for m, vecs in points.items()),
        key=itemgetter(1),
    )


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
