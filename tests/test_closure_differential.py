"""The union-find closure and the walk witnesses against the worklist oracle.

`oracles.close_edges` is the worklist closure the signed union-find
replaced, and `oracles.find_soft_self_loop` replays its provenance chains
into a witness.  The library enumerates the closed edges from the
components, counts them from the component sizes, and reads its witness
along the shortest walk over the detections.  Both sides start from the
same detected edges, so any difference is the closure's, the count's or
the witness walk's.
"""

import random

import pytest

from cvcsp.model import INF, CostFunction, Language
from cvcsp.express import PoolBudget, enumerate_binary_pool
from cvcsp.pairgraph import (
    build_graph,
    close_edges,
    closed_edges,
    detect_edges,
    find_soft_self_loop,
)
from corpus import random_cost_function
import oracles


def _witness(w):
    if w is None:
        return None
    return w.node, w.view.table.table, w.view.provenance


def _closure_mismatches(lang, graph, pool):
    detected = detect_edges(pool.views, lang.domain_size)
    expected = oracles.close_edges(detected)
    m, m_bar = oracles.compute_m(lang.domain_size, expected)
    edges = list(closed_edges(graph.closure))
    out = []
    if [key for key, _ in edges] != [e.endpoints for e in expected]:
        out.append("edges")
    if edges != [(e.endpoints, e.soft) for e in expected]:
        out.append("softness")
    if graph.M != m:
        out.append("M")
    if graph.m_bar != m_bar:
        out.append("m_bar")
    if len(close_edges(detected)) != len(expected):
        out.append("closed edge count")
    if _witness(find_soft_self_loop(graph)) != _witness(oracles.find_soft_self_loop(expected)):
        out.append("witness")
    return out


def test_closure_matches_oracle_on_loop_free_corpus(loop_free_500):
    # the fixture's first 200 entries are loop_free_corpus(200, seed=20120)
    mismatches = []
    for lang, graph, pool in loop_free_500[:200]:
        found = _closure_mismatches(lang, graph, pool)
        if found:
            mismatches.append((lang, found))
    assert mismatches == []


def test_closure_matches_oracle_on_general_valued_languages():
    rng = random.Random(3131)
    mismatches = []
    with_loops = 0
    witnesses = 0
    for _ in range(300):
        d = rng.randint(2, 4)
        fns = tuple(
            random_cost_function(rng, f"f{i}", d, rng.randint(2, 3), inf_prob=0.2)
            for i in range(rng.randint(1, 2))
        )
        lang = Language(d, fns)
        graph = build_graph(lang, PoolBudget(max_views=48))
        with_loops += bool(graph.m_bar)
        witnesses += find_soft_self_loop(graph) is not None
        found = _closure_mismatches(lang, graph, graph.pool)
        if found:
            mismatches.append((lang, found))
    assert mismatches == []
    assert with_loops > 0  # contradictory components were exercised
    assert witnesses > 0  # and soft self-loop witnesses


def _binary(d, fn):
    table = tuple(fn(x, y) for x in range(d) for y in range(d))
    return Language(d, (CostFunction("f", 2, d, table),))


WITNESS_LANGUAGES = {
    "potts-d3": _binary(3, lambda x, y: int(x != y)),
    "potts-d5": _binary(5, lambda x, y: int(x != y)),
    "crisp-d3": _binary(3, lambda x, y: INF if x == y == 2 else 0),
    "nand": _binary(2, lambda x, y: INF if x == y == 1 else 0),
    "potts-forbid-ends": _binary(4, lambda x, y: INF if {x, y} == {0, 3} else int(x != y)),
}


@pytest.mark.parametrize("name", sorted(WITNESS_LANGUAGES))
def test_soft_loop_witness_matches_oracle(name):
    lang = WITNESS_LANGUAGES[name]
    pool = enumerate_binary_pool(lang)
    detected = detect_edges(pool.views, lang.domain_size)
    closed = oracles.close_edges(detected)
    expected = oracles.find_soft_self_loop(closed)
    graph = build_graph(lang)
    got = find_soft_self_loop(graph)
    assert expected is not None and got is not None
    assert _witness(got) == _witness(expected)
    assert list(closed_edges(graph.closure)) == [(e.endpoints, e.soft) for e in closed]
