import random

import pytest

from cvcsp.model import INF, BudgetExceeded, CostFunction, Language
from cvcsp.express import Pool, PoolBudget, enumerate_binary_pool
from cvcsp.pairgraph import Closure, PairGraph, all_pair_nodes, build_graph
from cvcsp.dichotomy import (
    GENERAL_CONJECTURED_TRACTABLE,
    NP_HARD,
    TRACTABLE,
    classify,
    find_submodular_order,
    search_stp,
    sign_pair,
    verify_multimorphism,
)
from corpus import (
    random_binary_language,
    random_finite_language,
    random_unary,
)
from oracles import (
    SignAssignment,
    TwoColorConflict,
    build_meet_join,
    check_sign_assignment,
    commutative_on,
    conservative_commutative_pairs,
    has_stp,
    is_conservative,
    is_idempotent,
    join_of,
    loop_submodular_order,
    min_max_pair,
    two_color,
    violates_inequality,
)


def lang_of(*tables, d=2):
    fns = tuple(CostFunction(f"f{i}", 2, d, tuple(t)) for i, t in enumerate(tables))
    return Language(d, fns)


def equality_cost():
    return lang_of((1, 0, 0, 1))


def distance3():
    return Language(
        3,
        (CostFunction("dist", 2, 3, tuple(abs(x - y) for x in range(3) for y in range(3))),),
    )


def swapped_distance3():
    # distance with labels 1 and 2 swapped: submodular only under 0<2<1
    swap = {0: 0, 1: 2, 2: 1}
    table = tuple(abs(swap[x] - swap[y]) for x in range(3) for y in range(3))
    return Language(3, (CostFunction("swapped", 2, 3, table),))


def edgeless(d):
    nodes = all_pair_nodes(d)
    return PairGraph(d, nodes, (), Closure((), {}, frozenset(), frozenset()), Pool((), False))


# ------------------------------------------------------------------ coloring


def test_two_color_single_edge_component():
    m = ((0, 1), (1, 0))
    adj = {(0, 1): [(1, 0)], (1, 0): [(0, 1)]}
    sign = two_color(m, adj)
    assert isinstance(sign, SignAssignment)
    assert sign.sigma[(0, 1)] == 1 and sign.sigma[(1, 0)] == -1
    check_sign_assignment(sign, adj)  # both contract clauses hold


def test_two_color_no_edges_gives_plus_one_representatives():
    m = tuple(all_pair_nodes(3))
    sign = two_color(m, {p: [] for p in m})
    assert isinstance(sign, SignAssignment)
    for a in range(3):
        for b in range(3):
            if a < b:
                assert sign.sigma[(a, b)] == 1
            elif a > b:
                assert sign.sigma[(a, b)] == -1


def test_two_color_reports_odd_cycle():
    m = ((0, 1), (0, 2), (2, 3))
    adj = {
        (0, 1): [(0, 2), (2, 3)],
        (0, 2): [(0, 1), (2, 3)],
        (2, 3): [(0, 1), (0, 2)],
    }
    conflict = two_color(m, adj)
    assert isinstance(conflict, TwoColorConflict)
    assert conflict.kind == "odd-cycle" and len(conflict.witness) >= 3


# ----------------------------------------------------------------- meet/join


def test_build_meet_join_from_sign():
    # the sign-checked builder the search used to run, and sign_pair on the
    # one free component of two labels, unflipped and flipped
    sign = SignAssignment(entries=(((0, 1), 1), ((1, 0), -1)))
    pair = build_meet_join(sign, ((0, 1), (1, 0)), 2)
    assert pair.meet_of(0, 1) == pair.meet_of(1, 0) == 0
    assert join_of(pair, 0, 1) == join_of(pair, 1, 0) == 1
    assert sign_pair(edgeless(2)) == pair
    flipped = sign_pair(edgeless(2), 1, {(0, 1): 1})
    assert flipped.meet_of(0, 1) == flipped.meet_of(1, 0) == 1


def test_build_meet_join_projection_on_looped_pairs():
    sign = SignAssignment(entries=())
    pair = build_meet_join(sign, (), 2)
    assert pair.meet_of(0, 1) == 0 and join_of(pair, 0, 1) == 1
    assert pair.meet_of(1, 0) == 1 and join_of(pair, 1, 0) == 0
    assert not commutative_on(pair, ((0, 1),))
    # equality cost contradicts the component of (0, 1), which projects
    graph = build_graph(equality_cost())
    assert graph.closure.contradicted and sign_pair(graph) == pair


def test_build_meet_join_idempotent_diagonal():
    sign = SignAssignment(entries=())
    pair = build_meet_join(sign, (), 3)
    assert pair.meet_of(2, 2) == 2 and join_of(pair, 2, 2) == 2
    assert is_idempotent(pair) and is_conservative(pair)
    assert is_idempotent(sign_pair(edgeless(3))) and is_idempotent(min_max_pair((2, 0, 1)))


def test_meet_join_always_conservative_idempotent_commutative_on_m():
    rng = random.Random(13)
    for _ in range(20):
        d = rng.randint(2, 4)
        nodes = all_pair_nodes(d)
        bit = {(a, b): 1 << k for k, (a, b) in enumerate(p for p in nodes if p[0] < p[1])}
        pair = sign_pair(edgeless(d), rng.randrange(1 << len(bit)), bit)
        assert is_conservative(pair) and is_idempotent(pair)
        assert commutative_on(pair, nodes)


# -------------------------------------------------------------- verification


def test_verify_min_max_on_distance():
    lang = distance3()
    pair = min_max_pair((0, 1, 2))
    assert verify_multimorphism(pair, lang) is None


def test_verify_equality_cost_violates_every_pair():
    lang = equality_cost()
    for meet, join in conservative_commutative_pairs(2):
        from cvcsp.dichotomy import OperationPair

        pair = OperationPair(2, meet, join)
        hit = verify_multimorphism(pair, lang)
        assert hit is not None
        assert hit.lhs == 2 and hit.rhs == 0


def test_verify_unary_only_language_holds_with_equality():
    lang = Language(3, (CostFunction("u", 1, 3, (5, 0, 2)),))
    pair = min_max_pair((2, 0, 1))
    assert verify_multimorphism(pair, lang) is None


def test_accepted_candidates_hold_on_every_pooled_view():
    # a pooled view is a min over sums of the language's functions, so a
    # pair that is a multimorphism of the language is one of every view; a
    # violated view means the view is unsound.  The verifier's verdict on the
    # language itself is checked against the oracle's own inequality scan.
    rng = random.Random(2024)
    candidates = [
        min_max_pair((0, 1, 2, 3)),
        min_max_pair((3, 2, 1, 0)),
        min_max_pair((1, 3, 0, 2)),
    ]
    accepted = rejected = 0
    for _ in range(1000):
        lang = random_binary_language(rng)
        pool = enumerate_binary_pool(lang, PoolBudget(max_views=16))
        d = lang.domain_size
        for cand in candidates:
            shrunk = _restrict_pair(cand, d)
            ok = verify_multimorphism(shrunk, lang) is None
            assert ok == (not any(violates_inequality(shrunk.meet, shrunk.join, f) for f in lang.functions))
            if ok:
                accepted += 1
                for view in pool.views:
                    assert not violates_inequality(shrunk.meet, shrunk.join, view.table)
            else:
                rejected += 1
    assert accepted > 0 and rejected > 0


def _restrict_pair(pair, d):
    from cvcsp.dichotomy import OperationPair

    if pair.domain_size == d:
        return pair
    meet = tuple(pair.meet[a * pair.domain_size + b] for a in range(d) for b in range(d))
    join = tuple(pair.join[a * pair.domain_size + b] for a in range(d) for b in range(d))
    return OperationPair(d, meet, join)


# -------------------------------------------------------------------- search


def test_search_finds_min_max_for_distance():
    lang = distance3()
    graph = build_graph(lang)
    cert, stats = search_stp(lang, graph)
    assert cert is not None
    expected = min_max_pair((0, 1, 2))
    assert cert == expected


def test_search_exhausts_on_equality_cost():
    lang = equality_cost()
    graph = build_graph(lang)
    cert, stats = search_stp(lang, graph)
    assert cert is None
    # a self-loop contradicts both orientations before any enumeration
    assert stats["contradiction"]


def test_search_on_empty_language_returns_all_plus_one():
    lang = Language(2, ())
    graph = build_graph(lang)
    cert, _ = search_stp(lang, graph)
    assert cert is not None and cert.meet_of(0, 1) == cert.meet_of(1, 0) == 0


def test_search_is_orientation_complete_on_booleans():
    rng = random.Random(77)
    for _ in range(60):
        lang = lang_of(tuple(rng.randint(0, 3) for _ in range(4)))
        graph = build_graph(lang)
        cert, stats = search_stp(lang, graph)
        assert (cert is not None) == has_stp(lang.functions, 2)
        if cert is None and not stats["contradiction"]:
            assert stats["candidates"] == 2


def test_search_falls_back_when_graph_prunes_nothing():
    # an edgeless graph gives no pruning, so the natural orientation fails
    # first and the search must walk on to the right one: masks 0, 1 and 3
    # are verified, and mask 2 is skipped by the nogood from mask 0
    lang = swapped_distance3()
    cert, stats = search_stp(lang, edgeless(3))
    assert cert is not None and stats["candidates"] == 3
    assert verify_multimorphism(cert, lang) is None
    # the first verifying orientation in enumeration order reverses 0<2<1,
    # which the permutation loop gave first
    order = find_submodular_order(cert)
    assert order == (1, 2, 0) and loop_submodular_order(lang, None) == (0, 2, 1)
    assert verify_multimorphism(min_max_pair((0, 2, 1)), lang) is None


def test_search_budget_bounds_the_candidates_verified(monkeypatch):
    # on an edgeless graph the swapped distance verifies on its third
    # candidate; a budget of one lets the search verify mask 0, which fails,
    # and no more
    import cvcsp.dichotomy as dichotomy

    lang = swapped_distance3()
    empty = edgeless(3)
    monkeypatch.setattr(dichotomy, "STP_CANDIDATE_BUDGET", 1)
    with pytest.raises(BudgetExceeded, match="verified 1 candidates .* STP_CANDIDATE_BUDGET of 1"):
        search_stp(lang, empty)
    monkeypatch.setattr(dichotomy, "STP_CANDIDATE_BUDGET", 2)
    with pytest.raises(BudgetExceeded, match="verified 2 candidates"):
        search_stp(lang, empty)
    monkeypatch.setattr(dichotomy, "STP_CANDIDATE_BUDGET", 3)
    cert, stats = search_stp(lang, empty)
    assert cert is not None and stats["candidates"] == 3


def test_search_resolves_nogoods_when_both_signs_of_a_component_fail():
    # the pool holds only the modular view, so the graph has no edge and all
    # 28 components stay free; Potts fails both signs of the component of
    # (0, 1) alone, so the two one-bit nogoods allow no mask at all
    d = 8
    modular = CostFunction("m", 2, d, tuple(x + 2 * y for x in range(d) for y in range(d)))
    potts = CostFunction("p", 2, d, tuple(int(x == y) for x in range(d) for y in range(d)))
    lang = Language(d, (modular, potts))
    graph = build_graph(lang, PoolBudget(max_views=1))
    cert, stats = search_stp(lang, graph)
    assert cert is None and not stats["contradiction"]
    assert stats["components"] == 28 and stats["candidates"] == 2


def test_search_verifies_the_first_candidate_on_a_large_domain():
    # no domain size is refused: a unary drives no edge, so all 36 label
    # pairs of d=9 are free components, and mask 0 verifies
    lang = Language(9, (CostFunction("u", 1, 9, tuple(range(9))),))
    cert, stats = search_stp(lang, build_graph(lang))
    assert cert is not None and verify_multimorphism(cert, lang) is None
    assert stats == {"candidates": 1, "components": 36, "contradiction": False}


def test_certificates_also_hold_on_pooled_views():
    rng = random.Random(31)
    verified = 0
    for _ in range(40):
        lang = random_finite_language(rng, max_domain=3)
        graph = build_graph(lang, PoolBudget(max_views=24))
        cert, _ = search_stp(lang, graph)
        if cert is None:
            continue
        for view in graph.pool.views:
            from cvcsp.dichotomy import _check_function

            assert _check_function(cert, view.table) is None
        verified += 1
    assert verified > 0


# --------------------------------------------------------------------- order


def test_submodular_order_for_distance():
    lang = distance3()
    cert, _ = search_stp(lang, build_graph(lang))
    assert find_submodular_order(cert) == (0, 1, 2)


def test_reversed_order_also_verifies_but_search_is_deterministic():
    lang = distance3()
    assert verify_multimorphism(min_max_pair((2, 1, 0)), lang) is None
    cert, _ = search_stp(lang, build_graph(lang))
    assert find_submodular_order(cert) == (0, 1, 2)


def test_transitive_certificate_is_its_order_without_verifying_again(monkeypatch):
    import cvcsp.dichotomy as dichotomy

    lang = distance3()
    graph = build_graph(lang)
    cert, _ = search_stp(lang, graph)
    calls = []

    def counting(pair, language):
        calls.append(pair)
        return verify_multimorphism(pair, language)

    monkeypatch.setattr(dichotomy, "verify_multimorphism", counting)
    assert find_submodular_order(cert) == (0, 1, 2)
    assert calls == []


def test_two_label_certificate_is_already_an_order():
    lang = lang_of((0, 1, 1, 0))
    cert, _ = search_stp(lang, build_graph(lang))
    order = find_submodular_order(cert)
    assert order is not None and len(order) == 2


# ------------------------------------------------------------ classification


def test_classify_equality_cost_np_hard_with_witness():
    cls = classify(equality_cost())
    assert cls.verdict == NP_HARD and cls.reason == "soft-self-loop"
    assert cls.witness is not None and cls.witness.node == (0, 1)


def test_classify_distance_tractable_with_order():
    cls = classify(distance3())
    assert cls.verdict == TRACTABLE
    assert cls.submodular_order == (0, 1, 2)
    assert cls.certificate is not None


def test_classify_crisp_disequality_conjectured_tractable():
    lang = lang_of((INF, 0, 0, INF))
    cls = classify(lang)
    assert cls.verdict == GENERAL_CONJECTURED_TRACTABLE
    assert cls.certificate is not None
    pair = cls.certificate
    assert pair.meet_of(0, 1) == 0 and pair.meet_of(1, 0) == 1  # projections


def test_classify_general_with_soft_loop_is_np_hard():
    lang = lang_of((0, 0, 0, INF))
    cls = classify(lang)
    assert cls.verdict == NP_HARD and cls.witness is not None


def test_classification_invariant_under_shift_and_unaries():
    from oracles import shift_costs
    from fractions import Fraction

    rng = random.Random(55)
    for _ in range(25):
        lang = random_finite_language(rng, max_domain=3)
        base = classify(lang).verdict
        shifted = Language(
            lang.domain_size,
            tuple(shift_costs(f, Fraction(3, 2)) for f in lang.functions),
        )
        assert classify(shifted).verdict == base
        extended = Language(
            lang.domain_size,
            lang.functions
            + tuple(random_unary(rng, f"u{i}", lang.domain_size) for i in range(3)),
        )
        assert classify(extended).verdict == base


def _strict_soft_exchange(view, quad):
    """f(a,a2) + f(b,b2) > f(a,b2) + f(b,a2), mixed entries finite, one
    aligned entry finite; checked straight from the table."""
    a, b, a2, b2 = quad
    d = view.domain_size
    t = view.table.table
    mixed = (t[a * d + b2], t[b * d + a2])
    aligned = (t[a * d + a2], t[b * d + b2])
    if INF in mixed or aligned == (INF, INF):
        return False
    return aligned[0] + aligned[1] > mixed[0] + mixed[1]


def test_classify_random_general_binaries_gives_verdicts_and_sound_witnesses():
    # with this seed, 2 of the 300 tables made the provenance-chain witness
    # replay of the old worklist closure recurse without end
    rng = random.Random(2028)
    witnesses = 0
    for k in range(300):
        table = tuple(INF if rng.random() < 0.2 else rng.randint(0, 4) for _ in range(16))
        cls = classify(Language(4, (CostFunction(f"f{k}", 2, 4, table),)))
        assert cls.verdict
        if cls.witness is not None:
            witnesses += 1
            p = cls.witness.node
            assert _strict_soft_exchange(cls.witness.view, p + p)
    assert witnesses > 0
