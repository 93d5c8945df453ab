"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything is exact (integer/rational equality); the only tolerances
are the per-criterion wall-clock budgets, asserted as stated.
"""

import json
import random
import time

from invforms.action import load_action, make_action, weight_of_exponents
from invforms.canonical import canonical_comparison, torus_part_strongly_stable
from invforms.action import finite_part_is_small
from invforms.euler import (
    EulerOperator,
    bracket_defect,
    euler_contract,
    homology_all_weights,
)
from invforms.forms import PolyForm, wedge
from invforms.invariants import hilbert_basis
from invforms.poly import Polynomial
from invforms.pullback import surjectivity_check
from invforms.report import default_bound, report_to_json, run_analysis, strip_timings
from invforms.smoothness import smoothness_verdict
from oracles import random_monomial_form


def load_corpus(corpus_dir):
    out = {}
    for path in sorted(corpus_dir.glob("*.json")):
        if path.name.endswith(".golden.json"):
            continue
        out[path.stem] = load_action(path)
    return out


def passed(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def test_criterion_1_algebraic_identities():
    t0 = time.perf_counter()
    rng = random.Random(20240)
    checked = 0
    while checked < 500:
        n = rng.randint(2, 4)
        weights = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
        act = make_action(n, torus_rank=1, weight_matrix=[weights])
        op = EulerOperator(act, 0)
        k = rng.randint(0, n - 1)
        l = rng.randint(0, n - 1)
        a = random_monomial_form(rng, n, k, rng.randint(0, 6 - k))
        if rng.random() < 0.5:
            extra = random_monomial_form(rng, n, k, rng.randint(0, 6 - k))
            a = a + extra
        b = random_monomial_form(rng, n, l, rng.randint(0, 6 - l))

        assert a.d().d().is_zero
        lhs = wedge(a, b).d()
        rhs = wedge(a.d(), b) + (-1 if k % 2 else 1) * wedge(a, b.d())
        assert lhs == rhs

        assert euler_contract(op, euler_contract(op, a)).is_zero
        sign = -1 if l % 2 else 1
        assert euler_contract(op, wedge(a, b)) == sign * wedge(
            euler_contract(op, a), b
        ) + wedge(a, euler_contract(op, b))

        # bracket on each torus-weight-homogeneous component of a
        by_weight = {}
        for I, exps, c in a.terms():
            w = weight_of_exponents(act, exps, I).torus[0]
            comp = PolyForm.monomial_form(n, exps, I, c)
            by_weight[w] = by_weight.get(w, PolyForm.zero(n, k)) + comp
        for comp in by_weight.values():
            assert bracket_defect(act, comp).is_zero

        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    passed("1 (algebraic identities)", f"{checked} forms in {elapsed:.1f}s")


def test_criterion_2_contraction_exactness():
    t0 = time.perf_counter()
    families = [
        (2, (1, 1)),
        (2, (1, 2)),
        (2, (2, 1)),
        (2, (2, 3)),
        (2, (3, 1)),
        (3, (1, 1, 1)),
        (3, (1, 2, 1)),
        (3, (2, 1, 3)),
        (3, (3, 2, 1)),
    ]
    for n, weights in families:
        act = make_action(n, torus_rank=1, weight_matrix=[list(weights)])
        res0 = homology_all_weights(act, 0, require_positive_grading=True)
        assert res0.homology == (1,) + (0,) * n
        for degree in range(1, 11):
            res = homology_all_weights(act, degree, require_positive_grading=True)
            assert res.homology == (0,) * (n + 1), (weights, degree, res)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    passed(
        "2 (contraction-complex exactness)",
        f"{len(families)} gradings x degrees 0..10 in {elapsed:.1f}s",
    )


def test_criterion_3_equivalence_on_finite_corpus(corpus_dir):
    t0 = time.perf_counter()
    corpus = load_corpus(corpus_dir)
    finite = {
        name: act for name, act in corpus.items() if act.torus_rank == 0
    }
    assert len(finite) >= 20
    disagreements = []
    for name, act in sorted(finite.items()):
        v = smoothness_verdict(act, default_bound(act))
        assert v.consolidated in ("smooth", "singular"), (name, v.consolidated)
        claims = {
            "monoid": v.monoid == "smooth",
            "shephard_todd": v.shephard_todd == "smooth",
            "surjectivity": all(vk == "surjective" for _, vk in v.surjectivity),
        }
        if len(set(claims.values())) != 1:
            disagreements.append((name, claims))
    assert disagreements == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    passed(
        "3 (three-route equivalence, finite corpus)",
        f"{len(finite)} instances in {elapsed:.1f}s",
    )


def test_criterion_4_a1_golden(corpus_dir, data_dir):
    action = load_action(corpus_dir / "z2_11.json")
    report = run_analysis(action)
    got = report_to_json(strip_timings(report))
    want = (data_dir / "a1.golden.json").read_text(encoding="utf-8")
    assert got == want

    res = surjectivity_check(action, 1, 8)
    assert res.verdict == "not_surjective"
    table = {d: (tdim, idim, coker) for d, tdim, idim, coker in res.table.rows}
    for d in range(9):
        assert table[d][2] == (1 if d == 2 else 0)
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    golden_witness = x * PolyForm.dx(2, 1) - y * PolyForm.dx(2, 0)
    assert res.witness == golden_witness
    verdicts = json.loads(got)["smoothness"]
    assert verdicts["consolidated"] == "singular"
    assert verdicts["surjectivity"]["1"] == "not_surjective"
    passed("4 (A1 golden instance)")


def test_criterion_5_brion_consistency(corpus_dir):
    corpus = load_corpus(corpus_dir)
    smooth_count = 0
    for name, act in sorted(corpus.items()):
        bound = default_bound(act)
        v = smoothness_verdict(act, bound)
        if v.consolidated != "smooth":
            continue
        smooth_count += 1
        basis = hilbert_basis(act, bound)
        for k in range(1, v.quotient_dim + 1):
            res = surjectivity_check(act, k, bound, basis=basis)
            for d, tdim, idim, coker in res.table.rows:
                assert coker == 0 and tdim == idim, (name, k, d)
    assert smooth_count >= 5
    passed("5 (isomorphism on smooth instances)", f"{smooth_count} smooth instances")


def test_criterion_6_canonical_series_on_small_instances(corpus_dir):
    t0 = time.perf_counter()
    corpus = load_corpus(corpus_dir)
    small = 0
    for name, act in sorted(corpus.items()):
        if not finite_part_is_small(act):
            continue
        if not torus_part_strongly_stable(act):
            continue
        doc = canonical_comparison(act, 10)
        assert doc["identification_certified"] and doc["match"], name
        small += 1
    assert small >= 15
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    passed(
        "6 (canonical module, two routes)",
        f"{small} small instances to degree 10 in {elapsed:.1f}s",
    )


def test_criterion_7_top_degree_implication(corpus_dir):
    corpus = load_corpus(corpus_dir)
    tested = 0
    for name, act in sorted(corpus.items()):
        bound = default_bound(act)
        report = run_analysis(act, max_degree=bound)
        if report["isolated_singularity"] != "isolated":
            continue
        dim_y = report["quotient_dim"]
        if dim_y < 2:
            continue
        lower = report["surjectivity"][str(dim_y - 1)]["verdict"]
        top = report["surjectivity"][str(dim_y)]["verdict"]
        assert lower in ("surjective", "not_surjective"), name
        assert top in ("surjective", "not_surjective"), name
        if lower == "surjective":
            assert top == "surjective", name
        tested += 1
    assert tested >= 10
    passed("7 (top-degree implication)", f"{tested} isolated instances")


def test_criterion_8_torus_isolated_spotcheck(corpus_dir):
    corpus = load_corpus(corpus_dir)
    torus = {
        name: act for name, act in corpus.items() if act.torus_rank >= 1
    }
    tested = 0
    singular_seen = 0
    for name, act in sorted(torus.items()):
        bound = default_bound(act)
        v = smoothness_verdict(act, bound)
        report = run_analysis(act, max_degree=bound)
        if report["isolated_singularity"] != "isolated":
            continue
        tested += 1
        all_surjective = all(vk == "surjective" for _, vk in v.surjectivity)
        if all_surjective:
            # surjective up to the quotient dimension forces smoothness
            assert v.monoid == "smooth", name
        if v.monoid == "singular":
            singular_seen += 1
            bad = [k for k, vk in v.surjectivity if vk == "not_surjective"]
            assert bad, name
            res = surjectivity_check(act, bad[0], bound)
            assert res.witness_degrees, name
    assert tested >= 5
    assert singular_seen >= 3
    passed(
        "8 (torus isolated-singularity spot-check)",
        f"{tested} instances, {singular_seen} singular",
    )
