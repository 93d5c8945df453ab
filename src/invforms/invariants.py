"""Invariant-ring generators and minimal generators of invariant form modules.

The weight-zero monomials form a normal affine monoid; its Hilbert
basis generates the invariant ring.  Form modules are handled one
total degree at a time, and within it one lattice-point block at a
time (see `pieces`): a graded Nakayama sweep records exactly the block
elements not reachable from lower degrees.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from math import comb
from operator import itemgetter

from invforms.cones import span_dim
from invforms.errors import PreconditionError
from invforms.euler import horizontal_block, torus_rows
from invforms.pieces import BlockModule, Grading, block_form, block_key, check_degree


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

    @cached_property
    def max_degree(self):
        return max((sum(g) for g in self.generators), default=0)


def hilbert_basis(action, bound, grading=None):
    """Minimal generators of the weight-zero monoid up to total degree `bound`.

    This is the monoid scan: a point is a generator when it dominates
    no generator of lower degree, tested on packed keys (`pieces`).  The
    scan walks degrees 1..min(bound, c), c the certificate bound; past c
    the basis is complete, so each degree up to `bound` is listed from
    sums of the basis by `Grading.sums` and is not scanned.  Within one
    call, take the basis from `monoid_basis`, which keeps the grading's
    scan.
    """
    if bound < 1:
        raise PreconditionError(f"bound must be at least 1, got {bound}")
    if grading is None:
        grading = Grading(action)
    check_degree(bound)
    cert = grading.certificate_bound()
    guard = grading.guard
    gens = []
    keys = []
    for d in range(1, min(bound, cert) + 1):
        points = zip(grading.weight_zero(d), grading.weight_zero_keys(d))
        for (exps, _), key in points:
            top = key | guard
            for g in keys:
                if (top - g) & guard == guard:
                    break
            else:
                gens.append(exps)
                keys.append(key)
    basis = [(key, sum(g)) for g, key in zip(gens, keys)]
    for d in range(cert + 1, bound + 1):
        grading.sums(d, basis)
    return MonoidBasis(tuple(gens), bound >= cert, bound, cert)


def monoid_basis(grading, bound):
    """The Hilbert basis found up to `bound`, scanned once per Grading:
    every stage of a call asks for the call's bound."""
    scan = grading.monoid
    if scan is None or scan.search_bound != bound:
        scan = grading.monoid = hilbert_basis(grading.action, bound, grading)
    return scan


def quotient_dimension(action, grading=None):
    """Krull dimension of the invariant ring, ranked once per Grading.

    It is the dimension of the cone of the monoid, which its extremal
    rays span, so the rank of the ray generators (`Grading.rays`): the
    monoid needs no scan.
    """
    if grading is None:
        grading = Grading(action)
    if grading.dimension is None:
        grading.dimension = span_dim(grading.rays, action.n)
    return grading.dimension


@dataclass(frozen=True)
class GradedSubmodule:
    """Minimal generators, over the invariant ring, of a module of k-forms.

    The list is certified minimal-and-spanning for all pieces of total
    degree up to the sweep's bound, and `series` holds the module's
    weight-zero dimension in each degree 0..bound.  Generators are kept
    as (lattice point, block vector) pairs in `generator_blocks`, with
    their total degrees in `generator_degrees`; the engine reads only
    these, and `generators` builds the same generators as forms on first
    use.
    """

    form_degree: int
    generator_blocks: tuple
    generator_degrees: tuple
    series: tuple

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
    is not generated from lower degrees (graded Nakayama); what lower
    degrees generate at m is spanned by the generators lifted to m
    (`pieces.BlockModule`).  Generators of one degree are listed in the
    piece order of their free columns.

    Once a block is swept it holds its whole canonical basis, its cap,
    so a later point that dominates it with the same support finds
    nothing new and is saturated.  Every block of the sweep thus ends
    at its cap, saturated or swept, and the module's series is the sum
    of the caps of each degree's blocks.
    """
    if bound < k:
        raise PreconditionError(f"bound {bound} below form degree {k}")
    if grading is None:
        grading = Grading(action)
    check_degree(bound)
    n = action.n
    rows = torus_rows(action) if horizontal else ()
    basis_at = cache(lambda s: horizontal_block(n, k, s, rows))
    module = BlockModule(grading, k, lambda s: len(basis_at(s)))
    blocks = []
    degrees = []
    series = [0] * k
    for d in range(k, bound + 1):
        # every generator so far has degree below d
        found = []
        dim = 0
        for m, s, ech in module.blocks(d):
            dim += len(basis_at(s))
            if ech is not None:
                for v in basis_at(s):
                    if ech.insert(v) is not None:
                        found.append((block_key(n, k, m, v), m, v))
        series.append(dim)
        found.sort(key=itemgetter(0))
        for _, m, v in found:
            module.add(m, v)
            blocks.append((m, v))
        degrees.extend(d for _ in found)
    return GradedSubmodule(k, tuple(blocks), tuple(degrees), tuple(series))


def invariant_ring_series(action, truncation, grading=None):
    """Direct count of weight-zero monomials per degree 0..truncation
    (the honest series), as a tuple."""
    if grading is None:
        grading = Grading(action)
    return tuple(len(grading.weight_zero(d)) for d in range(truncation + 1))


# No engine path reads it: kept for perfbench/, which traces it, and the tests.
def hilbert_series_of(module, action, truncation, grading=None):
    """Per-degree weight-zero dimensions, 0..truncation, of the
    invariant-ring span of a GradedSubmodule, block by block
    (`pieces.BlockModule`), as a tuple."""
    if grading is None:
        grading = Grading(action)
    k = module.form_degree
    sweep = BlockModule(
        grading, k, lambda s: comb(len(s), k), module.generator_blocks
    )
    return tuple(
        sum([
            comb(len(s), k) if ech is None else ech.rank
            for _, s, ech in sweep.blocks(d)
        ])
        for d in range(truncation + 1)
    )
