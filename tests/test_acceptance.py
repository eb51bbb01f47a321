"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass.  All comparisons are bit-exact; the timed criteria assert their
wall-clock budgets.
"""

import itertools
import random
import time
from fractions import Fraction

from cvcsp.model import INF, CostFunction, Language
from cvcsp.pairgraph import bar
from cvcsp.dichotomy import (
    NP_HARD,
    TRACTABLE,
    _check_function,
    classify,
    search_stp,
    verify_multimorphism,
)
from cvcsp.hardness import (
    SourceGraph,
    normalize_witness,
    reduce_maxcut,
    reduce_mis,
)
from cvcsp.solver import brute_force, solve_mincut
from corpus import random_cost_function, random_submodular_instance, random_unary
from oracles import (
    SignAssignment,
    build_meet_join,
    check_graph_invariants,
    check_sign_assignment,
    has_stp,
    independent_set_value,
    max_cut_value,
    mirror_symmetric,
    neighbors_in_m,
    shift_costs,
    two_color,
)


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _random_graph(rng, max_n=10):
    n = rng.randint(1, max_n)
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    )
    return SourceGraph(n, edges)


def test_criterion_1_boolean_dichotomy():
    started = time.perf_counter()
    mismatches = []
    missing_witness = []
    for table in itertools.product((0, 1, 2), repeat=4):
        lang = Language(2, (CostFunction("f", 2, 2, table),))
        cls = classify(lang)
        expected = TRACTABLE if has_stp(lang.functions, 2) else NP_HARD
        if cls.verdict != expected:
            mismatches.append((table, cls.verdict, expected))
        if cls.verdict == NP_HARD and cls.witness is None:
            missing_witness.append(table)
    elapsed = time.perf_counter() - started
    ok = not mismatches and not missing_witness and elapsed < 10.0
    _report(
        1,
        ok,
        f"81 Boolean one-function languages, {len(mismatches)} verdict mismatches, "
        f"{len(missing_witness)} missing witnesses, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_xor_gadget():
    started = time.perf_counter()
    lang = Language(2, (CostFunction("h", 2, 2, (1, 0, 0, 1)),))
    cls = classify(lang)
    assert cls.verdict == NP_HARD and cls.witness is not None
    witness = normalize_witness(cls.witness.view, *cls.witness.node)
    assert witness.kind == "both_finite"
    rng = random.Random(4242)
    failures = 0
    for _ in range(200):
        src = _random_graph(rng)
        instance, decoder = reduce_maxcut(src, witness)
        optimum = brute_force(instance).cost
        if decoder.decode(optimum) != max_cut_value(src):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 30.0
    _report(
        2,
        ok,
        f"max-cut decodes bit-exactly on 200 random graphs, {failures} failures, "
        f"{elapsed:.2f}s (< 30s)",
    )


def test_criterion_3_independent_set_gadget():
    started = time.perf_counter()
    lang = Language(2, (CostFunction("g", 2, 2, (0, 0, 0, INF)),))
    cls = classify(lang)
    assert cls.verdict == NP_HARD and cls.witness is not None
    witness = normalize_witness(cls.witness.view, *cls.witness.node)
    assert witness.kind == "one_infinite"
    rng = random.Random(2323)
    failures = 0
    for _ in range(200):
        src = _random_graph(rng)
        instance, decoder = reduce_mis(src, witness)
        optimum = brute_force(instance).cost
        if decoder.decode(optimum) != independent_set_value(src):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 30.0
    _report(
        3,
        ok,
        f"independent set decodes bit-exactly on 200 random graphs, {failures} "
        f"failures, {elapsed:.2f}s (< 30s)",
    )


def test_criterion_4_graph_structure_suite(loop_free_500):
    failures = []
    for lang, graph, _ in loop_free_500:
        if not mirror_symmetric(graph):
            failures.append(("mirror", lang))
            continue
        findings = check_graph_invariants(graph)
        if findings:
            failures.append((findings[0].rule, lang))
    _report(
        4,
        not failures,
        f"mirror symmetry, boundary, bipartiteness and swap-parity checks on "
        f"{len(loop_free_500)} loop-free graphs, {len(failures)} failures",
    )


def test_criterion_5_sign_assignment_contract(loop_free_500):
    failures = 0
    for lang, graph, _ in loop_free_500:
        adj = neighbors_in_m(graph)
        sign = two_color(graph.M, adj)
        if not isinstance(sign, SignAssignment):
            failures += 1
            continue
        sigma = sign.sigma
        if any(sigma[p] != -sigma[bar(p)] for p in graph.M):
            failures += 1
            continue
        if any(sigma[p] != -sigma[q] for p, ns in adj.items() for q in ns):
            failures += 1
            continue
        check_sign_assignment(sign, adj)
    _report(
        5,
        failures == 0,
        f"alternating and swap-antisymmetric signs on {len(loop_free_500)} "
        f"graphs, {failures} failures",
    )


def test_criterion_6_sign_built_pair_end_to_end(loop_free_500):
    disagreements = 0
    fallbacks = 0
    for lang, graph, pool in loop_free_500:
        sign = two_color(graph.M, neighbors_in_m(graph))
        assert isinstance(sign, SignAssignment)
        pair = build_meet_join(sign, graph.M, lang.domain_size)
        direct = verify_multimorphism(pair, lang) is None and all(
            _check_function(pair, view.table) is None for view in pool.views
        )
        if not direct:
            fallbacks += 1
        cert, _ = search_stp(lang, graph)
        verdict_tractable = cert is not None
        if verdict_tractable != has_stp(lang.functions, lang.domain_size):
            disagreements += 1
    _report(
        6,
        disagreements == 0,
        f"sign-built pairs on {len(loop_free_500)} languages "
        f"({fallbacks} exhaustive fallbacks), {disagreements} disagreements "
        f"with the exhaustive oracle",
    )


def test_criterion_7_solver_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(777)
    cost_mismatches = 0
    duality_breaks = 0
    for _ in range(1000):
        instance, order, _ = random_submodular_instance(rng)
        cut_result = solve_mincut(instance, order)
        brute_result = brute_force(instance)
        if cut_result.cost != brute_result.cost:
            cost_mismatches += 1
        if cut_result.stats["flow"] != cut_result.stats["cut"]:
            duality_breaks += 1
    elapsed = time.perf_counter() - started
    ok = cost_mismatches == 0 and duality_breaks == 0 and elapsed < 60.0
    _report(
        7,
        ok,
        f"1000 submodular instances: {cost_mismatches} cost mismatches, "
        f"{duality_breaks} duality breaks, {elapsed:.2f}s (< 60s)",
    )


def test_criterion_8_invariance_suite():
    rng = random.Random(888)
    mismatches = 0
    for case in range(100):
        d = rng.randint(2, 4)
        fns = tuple(
            random_cost_function(
                rng, f"f{i}", d, rng.randint(1, 3),
                inf_prob=0.2 if case % 2 else 0.0,
            )
            for i in range(rng.randint(1, 2))
        )
        lang = Language(d, fns)
        base = classify(lang).verdict
        shifted = Language(d, tuple(shift_costs(f, Fraction(5, 2)) for f in fns))
        if classify(shifted).verdict != base:
            mismatches += 1
            continue
        extended = Language(
            d, fns + tuple(random_unary(rng, f"u{i}", d) for i in range(5))
        )
        if classify(extended).verdict != base:
            mismatches += 1
    _report(
        8,
        mismatches == 0,
        f"verdicts invariant under cost shifts and adjoined unaries on 100 "
        f"languages, {mismatches} mismatches",
    )
