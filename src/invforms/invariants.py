"""Invariant-ring generators and minimal generators of invariant form modules.

The weight-zero monomials form a normal affine monoid; its Hilbert
basis generates the invariant ring.  Form modules are handled one
total degree at a time, and within it one lattice-point block at a
time (see `pieces`): a graded Nakayama sweep records exactly the block
elements not reachable from lower degrees.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import itemgetter

from invforms.action import zero_weight
from invforms.cones import span_dim
from invforms.errors import PreconditionError
from invforms.euler import horizontal_block, torus_rows
from invforms.pieces import (
    Grading,
    Saturation,
    block_form,
    block_key,
    block_points,
    block_span,
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
    `monoid_basis`, which cuts smaller bases from the grading's scan.
    """
    _check_bound(bound)
    if grading is None:
        grading = Grading(action)
    gens = []
    for d in range(1, bound + 1):
        for exps, _ in grading.weight_zero(d):
            if not any(_dominates(exps, g) for g in gens):
                gens.append(exps)
    cert = grading.certificate_bound()
    return MonoidBasis(tuple(gens), bound >= cert, bound, cert)


def monoid_basis(grading, bound):
    """The Hilbert basis found up to `bound`, cut from the grading's scan.

    A scan reaches the bound asked for; a later, smaller bound is cut
    from it.  Each monomial is tested only against generators of lower
    degree, so the generators found up to `bound` do not depend on how
    far the scan goes.
    """
    _check_bound(bound)
    scan = grading.monoid
    if scan is None or scan.search_bound < bound:
        scan = grading.monoid = hilbert_basis(grading.action, bound, grading)
    return scan.truncated(bound)


def analysis_basis(grading, bound):
    """The basis at `bound` for a call that also reads the certified
    basis: one scan, to max(bound, certificate bound), serves both."""
    _check_bound(bound)
    top = max(bound, grading.certificate_bound())
    return monoid_basis(grading, top).truncated(bound)


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
    Generators are kept as (lattice point, block vector) pairs in
    `generator_blocks`; `generators` builds them as forms on first use.
    """

    form_degree: int
    generator_blocks: tuple
    generator_degrees: tuple
    generator_bound: int
    basis_complete: bool

    @cached_property
    def generators(self):
        return tuple(
            block_form(len(m), self.form_degree, m, vec)
            for m, vec in self.generator_blocks
        )


def invariant_form_generators(action, k, horizontal, bound, grading=None):
    """Minimal invariant-ring generators of the invariant k-form module.

    With `horizontal` set the module is cut down to the common kernel
    of the torus contractions (no-op for finite-only actions).  Sweeps
    total degrees up to `bound`; within each block, candidates are the
    canonical block basis and a candidate is recorded exactly when it
    is not generated from lower degrees (graded Nakayama).  Generators
    of one degree are listed in the piece order of their free columns.

    Once a block is swept it holds its whole canonical basis, its cap,
    so a later point that dominates it with the same support finds
    nothing new and is skipped (`pieces.Saturation`).
    """
    if bound < k:
        raise PreconditionError(f"bound {bound} below form degree {k}")
    if grading is None:
        grading = Grading(action)
    n = action.n
    w0 = zero_weight(action)
    rows = torus_rows(action) if horizontal else ()
    bases = {}
    capped = Saturation()
    blocks = []
    degrees = []
    for d in range(k, bound + 1):
        found = []
        for m, s in block_points(grading, k, d, w0):
            if capped.covers(m, s):
                continue
            if s not in bases:
                bases[s] = horizontal_block(n, k, s, rows)
            # every generator so far has degree below d
            ech = block_span(blocks, m, comb(n, k), len(bases[s]))
            for v in bases[s]:
                if ech.insert(v) is not None:
                    found.append((block_key(n, k, m, v), m, v))
            capped.record(m, s)
        found.sort(key=itemgetter(0))
        blocks.extend((m, v) for _, m, v in found)
        degrees.extend(d for _ in found)
    # monoid_basis(grading, max(bound, 1)).complete, without a monoid scan
    complete = max(bound, 1) >= grading.certificate_bound()
    return GradedSubmodule(k, tuple(blocks), tuple(degrees), bound, complete)


def invariant_ring_series(action, truncation, grading=None):
    """Direct count of weight-zero monomials per degree (the honest series)."""
    if grading is None:
        grading = Grading(action)
    return HilbertSeries(
        tuple(len(grading.weight_zero(d)) for d in range(truncation + 1))
    )


def hilbert_series_of(obj, action, truncation, grading=None):
    """Per-degree weight-zero dimensions of the module spanned by `obj`.

    A MonoidBasis spans the subring generated by its monomials (closure
    under sums); a GradedSubmodule spans its invariant-ring span, whose
    blocks saturate up the monoid (`pieces.Saturation`).
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
    blocks = obj.generator_blocks
    ncols = comb(action.n, k)
    capped = Saturation()
    coeffs = []
    for d in range(truncation + 1):
        dim = 0
        for m, s in block_points(grading, k, d, w0):
            full = comb(len(s), k)
            if not capped.covers(m, s):
                rank = block_span(blocks, m, ncols, full).rank
                if rank < full:
                    dim += rank
                    continue
                capped.record(m, s)
            dim += full
        coeffs.append(dim)
    return HilbertSeries(tuple(coeffs))
