"""Invariant-ring generators and minimal generators of invariant form modules.

The weight-zero monomials form a normal affine monoid; its Hilbert
basis generates the invariant ring.  Form modules are handled one
total degree at a time: a graded Nakayama sweep records exactly the
piece elements not reachable from lower degrees.
"""

from dataclasses import dataclass

from invforms.action import zero_weight
from invforms.cones import span_dim
from invforms.errors import PreconditionError
from invforms.euler import horizontal_vectors
from invforms.linalg import Echelon
from invforms.pieces import (
    Grading,
    monomials_with_weight,
    piece_keys,
    shifted_rows,
    vector_to_form,
)


@dataclass(frozen=True)
class MonoidBasis:
    """Minimal weight-zero monomial generators found up to `search_bound`.

    `complete` is set only when `search_bound` reaches the certificate
    bound, so a complete basis is the whole Hilbert basis.
    """

    generators: tuple
    complete: bool
    search_bound: int
    certificate_bound: int

    @property
    def max_degree(self):
        return max((sum(g) for g in self.generators), default=0)

    def truncated(self, bound):
        """The basis that a scan stopped at `bound` <= search_bound finds."""
        if bound == self.search_bound:
            return self
        return MonoidBasis(
            tuple(g for g in self.generators if sum(g) <= bound),
            bound >= self.certificate_bound,
            bound,
            self.certificate_bound,
        )


def _dominates(a, b):
    return all(x >= y for x, y in zip(a, b))


def _check_bound(bound):
    if bound < 1:
        raise PreconditionError(f"bound must be at least 1, got {bound}")


def hilbert_basis(action, bound, grading=None):
    """Minimal generators of the weight-zero monoid up to total degree `bound`.

    This is the monoid scan.  Within one call, take bases from
    `monoid_basis`, which scans once and cuts every basis from that.
    """
    _check_bound(bound)
    if grading is None:
        grading = Grading(action)
    w0 = zero_weight(action)
    gens = []
    for d in range(1, bound + 1):
        for exps in monomials_with_weight(action, d, w0, grading):
            if not any(_dominates(exps, g) for g in gens):
                gens.append(exps)
    cert = grading.certificate_bound()
    return MonoidBasis(tuple(gens), bound >= cert, bound, cert)


def monoid_basis(grading, bound):
    """The Hilbert basis found up to `bound`, cut from the grading's one scan.

    The scan reaches max(bound, certificate bound), so an analysis that
    asks first for its own bound scans once.  Each monomial is tested
    only against generators of lower degree, so the generators found up
    to `bound` do not depend on how far the scan goes.
    """
    _check_bound(bound)
    scan = grading.monoid
    if scan is None or scan.search_bound < bound:
        top = max(bound, grading.certificate_bound())
        scan = grading.monoid = hilbert_basis(grading.action, top, grading)
    return scan.truncated(bound)


def certified_basis(grading):
    """The whole Hilbert basis: the scan up to the certificate bound."""
    return monoid_basis(grading, max(grading.certificate_bound(), 1))


def quotient_dimension(action, grading=None):
    """Krull dimension of the invariant ring (dimension of the monoid span)."""
    if grading is None:
        grading = Grading(action)
    return span_dim(certified_basis(grading).generators, action.n)


@dataclass(frozen=True)
class HilbertSeries:
    """Weight-zero piece dimensions per total degree, 0..D."""

    coefficients: tuple

    def __getitem__(self, d):
        return self.coefficients[d]

    def __len__(self):
        return len(self.coefficients)


@dataclass(frozen=True)
class GradedSubmodule:
    """Minimal generators, over the invariant ring, of a module of k-forms.

    The list is certified minimal-and-spanning for all pieces of total
    degree <= generator_bound; `basis_complete` records whether the
    invariant-ring generators themselves were certified at that bound.
    """

    form_degree: int
    generators: tuple
    generator_degrees: tuple
    generator_bound: int
    basis_complete: bool


def _module_piece_vectors(action, k, degree, horizontal, keys, positions, grading):
    """Canonical basis vectors of the weight-zero module piece."""
    if horizontal and action.torus_rank > 0:
        return horizontal_vectors(action, k, degree, keys, positions, grading)
    vecs = []
    for i in range(len(keys)):
        v = [0] * len(keys)
        v[i] = 1
        vecs.append(v)
    return vecs


def invariant_form_generators(action, k, horizontal, bound, grading=None):
    """Minimal invariant-ring generators of the invariant k-form module.

    With `horizontal` set the module is cut down to the common kernel
    of the torus contractions (no-op for finite-only actions).  Sweeps
    total degrees up to `bound`; within each piece, candidates are the
    canonical piece basis and a candidate is recorded exactly when it
    is not generated from lower degrees (graded Nakayama).
    """
    if bound < k:
        raise PreconditionError(f"bound {bound} below form degree {k}")
    if grading is None:
        grading = Grading(action)
    w0 = zero_weight(action)
    gens = []
    degrees = []
    shifts = []
    for d in range(k, bound + 1):
        keys = piece_keys(action, k, d, w0, grading)
        if not keys:
            continue
        positions = {key: i for i, key in enumerate(keys)}
        ech = Echelon(len(keys))
        # every generator so far has degree below d
        for row in shifted_rows(action, shifts, d, w0, positions, grading):
            ech.insert(row)
        vectors = _module_piece_vectors(
            action, k, d, horizontal, keys, positions, grading
        )
        for v in vectors:
            if ech.insert(v) is not None:
                g = vector_to_form(action.n, k, v, keys)
                gens.append(g)
                degrees.append(d)
                shifts.append((d, w0, list(g.terms())))
    # monoid_basis(grading, max(bound, 1)).complete, without a monoid scan
    complete = max(bound, 1) >= grading.certificate_bound()
    return GradedSubmodule(k, tuple(gens), tuple(degrees), bound, complete)


def invariant_ring_series(action, truncation, grading=None):
    """Direct count of weight-zero monomials per degree (the honest series)."""
    if grading is None:
        grading = Grading(action)
    w0 = zero_weight(action)
    return HilbertSeries(
        tuple(
            len(monomials_with_weight(action, d, w0, grading))
            for d in range(truncation + 1)
        )
    )


def hilbert_series_of(obj, action, truncation, grading=None):
    """Per-degree weight-zero dimensions of the module spanned by `obj`.

    A MonoidBasis spans the subring generated by its monomials (closure
    under sums); a GradedSubmodule spans its invariant-ring span.
    """
    if isinstance(obj, MonoidBasis):
        reach = [set() for _ in range(truncation + 1)]
        reach[0].add((0,) * action.n)
        for d in range(1, truncation + 1):
            seen = reach[d]
            for g in obj.generators:
                dg = sum(g)
                if dg > d:
                    continue
                for s in reach[d - dg]:
                    seen.add(tuple(a + b for a, b in zip(s, g)))
        return HilbertSeries(tuple(len(r) for r in reach))

    if grading is None:
        grading = Grading(action)
    w0 = zero_weight(action)
    k = obj.form_degree
    shifts = [
        (dg, w0, list(g.terms()))
        for dg, g in zip(obj.generator_degrees, obj.generators)
    ]
    coeffs = []
    for d in range(truncation + 1):
        keys = piece_keys(action, k, d, w0, grading)
        if not keys:
            coeffs.append(0)
            continue
        positions = {key: i for i, key in enumerate(keys)}
        ech = Echelon(len(keys))
        for row in shifted_rows(action, shifts, d, w0, positions, grading):
            ech.insert(row)
        coeffs.append(ech.rank)
    return HilbertSeries(tuple(coeffs))
