import random

from cvcsp.model import INF, CostFunction, Language
from cvcsp.express import Pool, PoolBudget, enumerate_binary_pool
from cvcsp.pairgraph import (
    Closure,
    PairEdge,
    PairGraph,
    _detected_steps,
    _exchange_violation,
    _shortest_walk,
    all_pair_nodes,
    build_graph,
    close_edges,
    closed_edges,
    detect_edges,
    find_soft_self_loop,
    materialize_edge_witness,
    to_dot,
)
from corpus import loop_free_corpus, random_finite_language
from oracles import base_view, check_graph_invariants, mirror_symmetric


def lang_of(*tables, d=2):
    fns = tuple(
        CostFunction(f"f{i}", 2, d, tuple(t)) for i, t in enumerate(tables)
    )
    return Language(d, fns)


def equality_cost():
    return lang_of((1, 0, 0, 1))


def boolean_distance():
    return lang_of((0, 1, 1, 0))


def crisp_disequality():
    return lang_of((INF, 0, 0, INF))


def edges_of(lang, budget=PoolBudget()):
    pool = enumerate_binary_pool(lang, budget)
    return detect_edges(pool.views, lang.domain_size)


def is_loop(e):
    return e.endpoints[0] == e.endpoints[1]


def test_detect_soft_self_loop_for_equality_cost():
    edges = edges_of(equality_cost())
    loops = [e for e in edges if is_loop(e)]
    assert loops and all(e.soft for e in loops)
    assert {e.endpoints[0] for e in loops} == {(0, 1), (1, 0)}


def test_detect_soft_edge_for_distance():
    edges = edges_of(boolean_distance())
    assert any(
        e.endpoints == ((0, 1), (1, 0)) and e.soft and not is_loop(e)
        for e in edges
    )
    assert not any(is_loop(e) for e in edges)


def test_detect_hard_self_loop_for_crisp_disequality():
    edges = edges_of(crisp_disequality())
    loops = [e for e in edges if is_loop(e)]
    assert loops and all(not e.soft for e in loops)


def test_detected_edges_reverify_against_their_view():
    rng = random.Random(3)
    for _ in range(20):
        lang = random_finite_language(rng, max_domain=3)
        for e in edges_of(lang, PoolBudget(max_views=24)):
            hit, soft = _exchange_violation(e.view, e.quad)
            assert hit and soft == e.soft


def test_close_single_mirror_fixed_edge_is_fixpoint():
    e = PairEdge(((0, 1), (1, 0)), True, None, (0, 1, 1, 0))
    closed = close_edges([e])
    assert list(closed_edges(closed)) == [(((0, 1), (1, 0)), True)]
    assert len(closed) == 1


def test_close_chain_rule_derives_swap_edge():
    e = PairEdge(((0, 1), (2, 3)), True, None, (0, 1, 2, 3))
    closed = close_edges([e])
    keys = {key for key, _ in closed_edges(closed)}
    # p = r = (0,1), q = (2,3) gives {(0,1), (1,0)}; mirrors follow
    assert ((0, 1), (1, 0)) in keys
    assert ((2, 3), (3, 2)) in keys


def test_close_softness_propagates_through_chain():
    hard = PairEdge(((0, 1), (2, 3)), False, None, (0, 1, 2, 3))
    soft = PairEdge(((1, 2), (2, 3)), True, None, (1, 2, 2, 3))
    closed = dict(closed_edges(close_edges([hard, soft])))
    # chain with p=(0,1), q=(2,3), r=(1,2) uses one soft parent
    assert closed.get(((0, 1), (2, 1))) is True


def test_close_is_idempotent():
    rng = random.Random(5)
    for _ in range(15):
        lang = random_finite_language(rng, max_domain=3)
        once = close_edges(edges_of(lang, PoolBudget(max_views=24)))
        edges = list(closed_edges(once))
        twice = close_edges([PairEdge(key, soft, None, None) for key, soft in edges])
        assert list(closed_edges(twice)) == edges
        assert len(twice) == len(once) == len(edges)


def test_closed_graph_is_mirror_symmetric():
    rng = random.Random(7)
    for _ in range(15):
        lang = random_finite_language(rng, max_domain=4)
        graph = build_graph(lang, PoolBudget(max_views=24))
        assert mirror_symmetric(graph)


def test_compute_m_examples():
    graph = build_graph(equality_cost())
    m, m_bar = graph.M, graph.m_bar
    assert m == () and set(m_bar) == {(0, 1), (1, 0)}
    graph = build_graph(boolean_distance())
    m, m_bar = graph.M, graph.m_bar
    assert set(m) == {(0, 1), (1, 0)} and m_bar == ()
    graph = build_graph(Language(2, ()))
    m, m_bar = graph.M, graph.m_bar
    assert set(m) == {(0, 1), (1, 0)}


def test_finite_valued_all_edges_soft_no_loop_means_m_is_p():
    # finite tables put every assignment in the effective domain, so every
    # edge is soft; filtering soft loops therefore leaves no loops at all
    for lang, graph, _ in loop_free_corpus(40, seed=99):
        assert all(soft for _, soft in closed_edges(graph.closure))
        assert set(graph.M) == set(all_pair_nodes(lang.domain_size))


def test_find_soft_self_loop_witnesses():
    graph = build_graph(equality_cost())
    w = find_soft_self_loop(graph)
    assert w is not None and w.node == (0, 1)
    assert find_soft_self_loop(build_graph(boolean_distance())) is None
    assert find_soft_self_loop(build_graph(crisp_disequality())) is None


def test_derived_loop_witness_materializes():
    # two detected edges whose chain closure creates a self-loop; the loop
    # witness must be replayed numerically and re-verify the inequality
    f = CostFunction("f", 2, 4, tuple(
        1 if (x, y) in ((0, 2), (1, 3)) else 0 for x in range(4) for y in range(4)
    ))
    g = CostFunction("g", 2, 4, tuple(
        1 if (x, y) in ((2, 1), (3, 0)) else 0 for x in range(4) for y in range(4)
    ))
    closure = close_edges(detect_edges([base_view(f), base_view(g)], 4))
    loops = [p for (p, q), soft in closed_edges(closure) if p == q and soft]
    assert loops
    for p in loops:
        view, quad = materialize_edge_witness(closure.detected, p, p, True)
        hit, soft = _exchange_violation(view, quad)
        assert hit and soft


def test_derived_loop_witness_is_genuinely_expressible():
    # the replayed chain witness (rebalancing unaries, penalized middle)
    # must reproduce its table when run as an explicit instance
    from oracles import view_table_by_replay

    f = CostFunction("f", 2, 4, tuple(
        1 if (x, y) in ((0, 2), (1, 3)) else 0 for x in range(4) for y in range(4)
    ))
    g = CostFunction("g", 2, 4, tuple(
        1 if (x, y) in ((2, 1), (3, 0)) else 0 for x in range(4) for y in range(4)
    ))
    lang = Language(4, (f, g))
    closure = close_edges(detect_edges([base_view(f), base_view(g)], 4))
    detected = {e.endpoints for e in closure.detected}
    derived = [(key, soft) for key, soft in closed_edges(closure) if key not in detected]
    assert derived
    for (p, q), soft in derived[:4]:
        view, _ = materialize_edge_witness(closure.detected, p, q, soft)
        assert view_table_by_replay(view.provenance, lang) == view.table.table


def test_materialized_witnesses_for_every_closed_edge():
    rng = random.Random(11)
    checked = 0
    for _ in range(10):
        lang = random_finite_language(rng, max_domain=3)
        graph = build_graph(lang, PoolBudget(max_views=16))
        for (p, q), soft in closed_edges(graph.closure):
            view, quad = materialize_edge_witness(graph.closure.detected, p, q, soft)
            hit, hit_soft = _exchange_violation(view, quad)
            assert hit
            if soft:
                assert hit_soft
            checked += 1
    assert checked > 0


def test_invariant_checks_pass_on_loop_free_corpus():
    for _, graph, _ in loop_free_corpus(30, seed=123):
        assert check_graph_invariants(graph) == []


def test_invariant_check_flags_injected_boundary_edge():
    graph = build_graph(crisp_disequality())
    # (0,1) is looped; no loop-free node exists over |D|=2, so fabricate one
    fake = PairGraph(
        domain_size=2,
        M=((1, 0),),
        m_bar=((0, 1),),
        closure=Closure((), {}, frozenset(), frozenset()),
        pool=graph.pool,
    )
    edges = list(closed_edges(graph.closure)) + [(((0, 1), (1, 0)), False)]
    rules = {d.rule for d in check_graph_invariants(fake, edges)}
    assert "boundary-edge" in rules


def test_invariant_check_flags_injected_odd_cycle():
    nodes = all_pair_nodes(4)
    cyc = [((0, 1), (2, 3)), ((2, 3), (0, 2)), ((0, 2), (0, 1))]
    edges = [(tuple(sorted(e)), True) for e in cyc]
    fake = PairGraph(4, nodes, (), Closure((), {}, frozenset(), frozenset()), Pool((), False))
    rules = {d.rule for d in check_graph_invariants(fake, edges)}
    assert "odd-cycle" in rules


def test_invariant_check_flags_soft_edge_at_looped_node():
    edges = [(((0, 1), (0, 1)), False), (((0, 1), (1, 0)), True)]
    fake = PairGraph(2, (), ((0, 1), (1, 0)), Closure((), {}, frozenset(), frozenset()), Pool((), False))
    rules = {d.rule for d in check_graph_invariants(fake, edges)}
    assert "soft-at-loop" in rules


def test_a_four_step_witness_walk_keeps_its_tie_break():
    # one view leaves a soft loop at (0, 1) that only a four-step walk
    # derives, with ties after the first step: scanning each later step's
    # neighbours in reverse sorted order gives another witness
    f = CostFunction("f", 2, 3, (INF, 4, 3, 3, INF, INF, INF, 2, INF))
    graph = build_graph(Language(3, (f,)), PoolBudget(max_views=1))
    steps = _detected_steps(graph.closure.detected)
    assert len(_shortest_walk(steps, (0, 1), (0, 1), True)) == 4
    w = find_soft_self_loop(graph)

    def unaries(view, u1):
        return ("add_unaries", view, u1, (0, 0, 0))

    base, zero = ("base", "f"), (0, 0, 0)
    first = ("min_chain", unaries(base, (0, 1, 0)), unaries(base, zero), (0, 1), 9)
    second = ("min_chain", unaries(first, zero), unaries(base, (0, 0, 1)), (2, 0), 19)
    third = ("min_chain", unaries(second, zero), unaries(base, (0, 0, 1)), (1, 2), 41)
    assert w.node == (0, 1) and w.view.provenance == third
    assert w.view.table.table == (14, 13, 80, 13, 75, 74, 12, 11, INF)


def test_dot_output_shape():
    graph = build_graph(boolean_distance())
    dot = to_dot(graph)
    assert dot.startswith("graph pair_graph {")
    assert '"0|1" -- "1|0"' in dot
    assert "dashed" not in dot
    crisp = to_dot(build_graph(crisp_disequality()))
    assert "gray80" in crisp and "dashed" in crisp
    assert to_dot(graph) == dot  # deterministic


def test_dot_isolated_nodes_for_unary_only_language():
    u = CostFunction("u", 1, 3, (0, 1, 2))
    dot = to_dot(build_graph(Language(3, (u,))))
    assert dot.count('"') == 2 * 6  # six isolated nodes, no edges
    assert "--" not in dot
