import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from invforms.action import load_action, make_action
from invforms.errors import PreconditionError
from invforms.forms import PolyForm
from invforms.invariants import (
    GradedSubmodule,
    hilbert_basis,
    hilbert_series_of,
    invariant_form_generators,
    invariant_ring_series,
    quotient_dimension,
)
from invforms.linalg import Echelon
from invforms.pieces import (
    Grading,
    block_points,
    form_to_vector,
    monomials_with_weight,
    piece_keys,
)
from invforms.poly import Polynomial
from oracles import (
    actions,
    brute_weight0_monomials,
    int_row,
    is_horizontal,
    subring_series,
    unsaturated_form_generators,
    unsaturated_series_of,
    weight_of_form,
    zero_weight,
)

Z2 = make_action(2, finite_orders=[2], weight_matrix=[[1, 1]])
Z3 = make_action(2, finite_orders=[3], weight_matrix=[[1, 1]])
T = make_action(2, torus_rank=1, weight_matrix=[[1, -1]])
X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


def test_hilbert_basis_examples():
    hb = hilbert_basis(Z2, 4)
    assert set(hb.generators) == {(2, 0), (1, 1), (0, 2)}
    assert hb.complete
    hb3 = hilbert_basis(Z3, 4)
    assert set(hb3.generators) == {(3, 0), (2, 1), (1, 2), (0, 3)}
    assert hb3.complete
    hbt = hilbert_basis(T, 4)
    assert hbt.generators == ((1, 1),)
    assert hbt.complete


def test_hilbert_basis_weight0_impossible():
    act = make_action(2, torus_rank=1, weight_matrix=[[1, 1]])
    hb = hilbert_basis(act, 5)
    assert hb.generators == ()
    assert hb.complete


def test_hilbert_basis_incomplete_below_certificate():
    # single ray (5, 1) of degree 6: nothing found at bound 4, and the
    # certificate must refuse to declare completeness
    act = make_action(2, torus_rank=1, weight_matrix=[[1, -5]])
    hb4 = hilbert_basis(act, 4)
    assert hb4.generators == ()
    assert not hb4.complete
    hb6 = hilbert_basis(act, 6)
    assert hb6.generators == ((5, 1),)
    assert hb6.complete


def test_hilbert_basis_minimality_oracle():
    # every generator is weight zero and not a sum of two nonzero
    # weight-zero monomials (checked by exhaustive splitting)
    for act in [Z2, Z3, T, make_action(3, finite_orders=[4], weight_matrix=[[1, 2, 3]])]:
        hb = hilbert_basis(act, 6)
        members = set()
        for d in range(7):
            members.update(
                brute_weight0_monomials(
                    act.weight_matrix, act.torus_rank, act.finite_orders, act.n, d
                )
            )
        members.discard((0,) * act.n)
        for g in hb.generators:
            assert g in members
            for b in members:
                c = tuple(x - y for x, y in zip(g, b))
                if any(e < 0 for e in c) or not any(c):
                    continue
                assert c not in members, f"{g} = {b} + {c} is decomposable"
        # and everything low-degree is reachable from the generators
        reachable = subring_series(hb.generators, act.n, 6)
        for d in range(7):
            assert reachable[d] == len(
                brute_weight0_monomials(
                    act.weight_matrix, act.torus_rank, act.finite_orders, act.n, d
                )
            )


def test_hilbert_basis_bound_precondition():
    with pytest.raises(PreconditionError):
        hilbert_basis(Z2, 0)


def test_quotient_dimension():
    assert quotient_dimension(Z2) == 2
    assert quotient_dimension(T) == 1
    assert quotient_dimension(make_action(2, torus_rank=1, weight_matrix=[[1, 1]])) == 0
    assert quotient_dimension(make_action(3)) == 3


def test_invariant_ring_series_examples():
    assert invariant_ring_series(Z2, 4) == (1, 0, 3, 0, 5)
    assert invariant_ring_series(T, 4) == (1, 0, 1, 0, 1)


def test_series_of_zero_module():
    empty = GradedSubmodule(1, (), (), 4, True)
    assert hilbert_series_of(empty, Z2, 4) == (0, 0, 0, 0, 0)


def test_series_of_unsorted_generators(corpus_dir):
    # generators need not ascend by degree
    act = load_action(corpus_dir / "z5_123.json")
    sub = invariant_form_generators(act, 1, True, 10)
    backwards = replace(
        sub,
        generator_blocks=sub.generator_blocks[::-1],
        generator_degrees=sub.generator_degrees[::-1],
    )
    series = hilbert_series_of(sub, act, 10)
    assert series[:6] == (0, 0, 2, 4, 6, 9)
    assert hilbert_series_of(backwards, act, 10) == series


def test_form_generators_z2():
    sub = invariant_form_generators(Z2, 1, True, 6)
    assert sub.generator_degrees == (2, 2, 2, 2)
    got = {str(f) for f in sub.generators}
    assert got == {"y*dx", "x*dx", "y*dy", "x*dy"}
    assert sub.basis_complete


def test_form_generators_trivial_group():
    triv = make_action(3)
    sub = invariant_form_generators(triv, 1, True, 4)
    assert sub.generator_degrees == (1, 1, 1)
    assert {str(f) for f in sub.generators} == {"dx", "dy", "dz"}
    for k in range(4):
        subk = invariant_form_generators(triv, k, True, 4)
        assert len(subk.generators) == [1, 3, 3, 1][k]


def test_form_generators_torus_horizontal():
    sub = invariant_form_generators(T, 1, True, 6)
    assert len(sub.generators) == 1
    assert sub.generators[0] == Y * PolyForm.dx(2, 0) + X * PolyForm.dx(2, 1)
    assert sub.generator_degrees == (2,)


def test_generators_are_invariant_and_horizontal():
    act = make_action(3, torus_rank=1, finite_orders=[2],
                      weight_matrix=[[1, 1, -2], [1, 0, 1]])
    sub = invariant_form_generators(act, 1, True, 8)
    for f in sub.generators:
        assert weight_of_form(act, f).is_zero
        assert is_horizontal(act, f)


def test_generators_minimality():
    # dropping any generator strictly shrinks some piece
    act = Z3
    k = 1
    sub = invariant_form_generators(act, k, True, 6)
    w0 = zero_weight(act)

    def span_dims(gens, degs):
        dims = []
        for d in range(7):
            keys = piece_keys(act, k, d, w0)
            if not keys:
                dims.append(0)
                continue
            positions = {key: i for i, key in enumerate(keys)}
            ech = Echelon(len(keys))
            for dg, g in zip(degs, gens):
                if d < dg:
                    continue
                for exps in monomials_with_weight(act, d - dg, w0):
                    f = g * Polynomial.monomial(act.n, exps)
                    ech.insert(int_row(form_to_vector(f, positions, len(keys))))
            dims.append(ech.rank)
        return dims

    full = span_dims(sub.generators, sub.generator_degrees)
    for i in range(len(sub.generators)):
        gens = list(sub.generators)
        degs = list(sub.generator_degrees)
        del gens[i], degs[i]
        assert span_dims(gens, degs) != full


def test_series_of_module_matches_piece_dimensions():
    sub = invariant_form_generators(Z2, 1, True, 6)
    series = hilbert_series_of(sub, Z2, 6)
    # pieces of the invariant 1-forms have dimension 2*(d-1 monomials)
    # in even total degree d
    assert series == (0, 0, 4, 0, 8, 0, 12)


# torus [1, -1, 0] and Z2 [0, 0, 1]: z^2 is invariant, so blocks at
# support {z} saturate on a torus action
MIX = make_action(3, torus_rank=1, finite_orders=[2],
                  weight_matrix=[[1, -1, 0], [0, 0, 1]])


@given(actions(), st.booleans())
@example(MIX, True)
@example(MIX, False)
@example(make_action(3, finite_orders=[3], weight_matrix=[[1, 1, 1]]), True)
def test_saturated_sweeps_match_the_unsaturated_ones(act, horizontal):
    grading = Grading(act)
    bound = 7
    for k in range(act.n + 1):
        sub = invariant_form_generators(act, k, horizontal, bound, grading)
        blocks, degrees = unsaturated_form_generators(act, k, horizontal, bound)
        assert sub.generator_blocks == blocks
        assert sub.generator_degrees == degrees
        series = hilbert_series_of(sub, act, bound, grading)
        assert series == unsaturated_series_of(act, k, blocks, bound)


def _count_calls(monkeypatch, fn):
    """Record the arguments of every engine call of `fn`, under every
    name any invforms module binds it to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "invforms" or name.startswith("invforms."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


# t_12m3 at bound 6 lies below its certificate bound 9
@pytest.mark.parametrize("name, bound", [("t_12m3", 6), ("z4_123", None)])
def test_one_monoid_scan_per_analysis(monkeypatch, corpus_dir, name, bound):
    import invforms.cones
    import invforms.invariants
    from invforms.report import run_analysis

    act = load_action(corpus_dir / f"{name}.json")
    scans = _count_calls(monkeypatch, invforms.invariants.hilbert_basis)
    certs = _count_calls(monkeypatch, invforms.cones.hilbert_certificate_bound)
    report = run_analysis(act, max_degree=bound)
    assert len(certs) == 1
    # one scan, which stops at the bound asked for, even below the certificate
    assert [args[1] for args in scans] == [report["bounds"]["max_degree"]]


@pytest.mark.parametrize("name", ["z3_111", "z2_10", "t_12m3", "mix_t1z2"])
def test_one_rank_of_the_basis_per_analysis(monkeypatch, corpus_dir, name):
    import invforms.cones
    from invforms.report import run_analysis

    ranks = _count_calls(monkeypatch, invforms.cones.span_dim)
    rays = _count_calls(monkeypatch, invforms.cones.extremal_rays)
    certs = _count_calls(monkeypatch, invforms.cones.hilbert_certificate_bound)
    report = run_analysis(load_action(corpus_dir / f"{name}.json"))
    # the rays are enumerated once, and give both the certificate
    # bound and dim Y
    assert (len(rays), len(certs), len(ranks)) == (1, 1, 1)
    assert report["smoothness"]["monoid"] != "inconclusive"


def test_canonical_comparison_makes_no_monoid_scan(monkeypatch, corpus_dir):
    import invforms.invariants
    from invforms.canonical import canonical_comparison

    act = load_action(corpus_dir / "z4_123.json")
    scans = _count_calls(monkeypatch, invforms.invariants.hilbert_basis)
    canonical_comparison(act, 10)
    # dim Y and the interior support are read off the extremal rays
    assert scans == []


def test_standalone_calls_scan_only_to_their_bound(monkeypatch, corpus_dir):
    import invforms.invariants
    from invforms.pullback import pullback_image, surjectivity_check

    act = load_action(corpus_dir / "t_12m3.json")  # certificate bound 9
    scans = _count_calls(monkeypatch, invforms.invariants.hilbert_basis)
    surjectivity_check(act, 1, 6)
    pullback_image(act, 1, 6)
    assert [args[1] for args in scans] == [6, 6]


def test_homology_reads_no_pieces(monkeypatch):
    import invforms.euler
    import invforms.pieces
    from invforms.euler import homology_all_weights

    t2_rank2 = make_action(
        4, torus_rank=2, weight_matrix=[[1, 1, 0, -1], [0, 1, 1, -1]]
    )
    calls = [
        _count_calls(monkeypatch, fn)
        for fn in (
            invforms.pieces.piece_keys,
            invforms.pieces.form_to_vector,
            invforms.euler.euler_contract,
        )
    ]
    homology_all_weights(t2_rank2, 5, torus_index=1)
    assert calls == [[], [], []]


def test_target_pieces_reuse_their_keys(monkeypatch, corpus_dir):
    import invforms.pieces
    from invforms.pullback import surjectivity_check

    act = load_action(corpus_dir / "z4_123.json")
    calls = _count_calls(monkeypatch, invforms.pieces.piece_keys)
    surjectivity_check(act, 1, 12)
    # image, target and table are read block by block off the grading
    assert calls == []


def test_echelons_stay_within_one_block(monkeypatch):
    from invforms.linalg import Echelon
    from invforms.report import run_analysis

    widths = []
    insert = Echelon.insert

    def recorded(self, row):
        widths.append(self.ncols)
        return insert(self, row)

    monkeypatch.setattr(Echelon, "insert", recorded)
    act = make_action(5, finite_orders=[3], weight_matrix=[[1, 1, 2, 2, 0]])
    run_analysis(act, max_degree=7)
    assert max(widths) <= 10  # C(5, 2), the widest block at n = 5
    # the benchmark's n5_z3: every open block is spanned from nothing
    assert len(widths) == 333


def test_saturated_blocks_skip_block_span(spanned, corpus_dir):
    from invforms.pullback import surjectivity_check

    # one echelon per open point; saturated points are never spanned, on
    # torus actions too, where a block's cap is its horizontal target
    for name in ("z3_111", "t_11m1", "t_12m3", "t_rank2"):
        act = load_action(corpus_dir / f"{name}.json")
        grading = Grading(act)
        w0 = zero_weight(act)
        for k in range(1, quotient_dimension(act) + 1):
            spanned.clear()
            surjectivity_check(act, k, 12)
            listed = sum(len(block_points(grading, k, d, w0)) for d in range(13))
            assert 0 < len(spanned) < listed, (name, k)


def test_analysis_builds_no_all_weight_bucket(monkeypatch, corpus_dir):
    import invforms.pieces
    from invforms.euler import homology_all_weights
    from invforms.report import run_analysis

    buckets = Grading.buckets
    degrees = []

    def counted(self, d):
        degrees.append(d)
        return buckets(self, d)

    monkeypatch.setattr(Grading, "buckets", counted)
    monos = _count_calls(monkeypatch, invforms.pieces.monomials_with_weight)
    for name in ("t_12m3", "mix_t1z2", "z4_123", "t_rank2"):
        run_analysis(load_action(corpus_dir / f"{name}.json"))
    assert degrees == []
    assert monos == []
    homology_all_weights(load_action(corpus_dir / "t_12m3.json"), 3)
    assert degrees == [3]
