"""The component-read sign search and signs against the edge-walk oracles.

`oracles.search_stp` runs its own union-find over the closed edges and
tries every candidate mask in increasing order; `oracles.two_color`
two-colours (M, E[M]) breadth-first.  The library reads both from the
closure's components instead, and its search skips the masks its nogoods
rule out.  Both sides see the same closed graph, so they must find the
same certificate, the first that verifies, over the same components, while
the library verifies no more candidates than the oracle enumerates.
`oracles.walk_search_stp` is the mask walk that skipped by nogoods before
the library took each candidate as the smallest mask its nogoods allow:
both verify the same masks, so the pair and the whole stats dict agree.  The
edge counts the library takes from component sizes are checked against the
closed edges enumerated from the components.  The library's certificate is
its verified pair, so its signs are read off the pair: +1 exactly when
(a, b) has meet a.
"""

import itertools
import random

from cvcsp.model import CostFunction, Language
from cvcsp.express import Pool, PoolBudget
from cvcsp.pairgraph import Closure, PairGraph, all_pair_nodes, build_graph, closed_edges
from cvcsp.dichotomy import _first_allowed, search_stp, sign_pair
from corpus import random_cost_function
import oracles


def sign_entries(pair, nodes) -> tuple:
    """The signs a pair gives the nodes: +1 exactly when (a, b) has meet a."""
    return tuple(((a, b), 1 if pair.meet_of(a, b) == a else -1) for a, b in nodes)


def _certificate(pair, graph):
    if pair is None:
        return None
    return sign_entries(pair, graph.nodes), pair.meet, pair.join


def _oracle_certificate(cert):
    if cert is None:
        return None
    return cert.sign.entries, cert.pair.meet, cert.pair.join


def _sign_mismatches(lang, graph):
    out = []
    cert, stats = search_stp(lang, graph)
    expected_cert, expected_stats = oracles.search_stp(lang, graph)
    if _certificate(cert, graph) != _oracle_certificate(expected_cert):
        out.append("certificate")
    for key in ("components", "contradiction"):
        if stats[key] != expected_stats[key]:
            out.append(key)
    if stats["candidates"] > expected_stats["candidates"]:
        out.append("candidates")
    if (cert, stats) != oracles.walk_search_stp(lang, graph):
        out.append("walk")
    colored = oracles.two_color(graph.M, oracles.neighbors_in_m(graph))
    if isinstance(colored, oracles.TwoColorConflict):
        out.append("two-color conflict")
    elif sign_entries(sign_pair(graph), graph.M) != colored.entries:
        out.append("signs on M")
    edges = list(closed_edges(graph.closure))
    if graph.edge_count() != len(edges):
        out.append("edge count")
    if graph.soft_count() != sum(1 for _, soft in edges if soft):
        out.append("soft count")
    return out


def test_signs_match_oracle_on_loop_free_corpus(loop_free_500):
    # the fixture's first 200 entries are loop_free_corpus(200, seed=20120)
    mismatches = []
    for lang, graph, _ in loop_free_500[:200]:
        found = _sign_mismatches(lang, graph)
        if found:
            mismatches.append((lang, found))
    assert mismatches == []


def test_signs_match_oracle_on_general_valued_languages():
    rng = random.Random(4242)
    mismatches = []
    contradicted = 0
    for _ in range(300):
        d = rng.randint(2, 4)
        fns = tuple(
            random_cost_function(rng, f"f{i}", d, rng.randint(2, 3), inf_prob=0.2)
            for i in range(rng.randint(1, 2))
        )
        lang = Language(d, fns)
        graph = build_graph(lang, PoolBudget(max_views=48))
        contradicted += bool(graph.closure.contradicted)
        found = _sign_mismatches(lang, graph)
        if found:
            mismatches.append((lang, found))
    assert mismatches == []
    assert 0 < contradicted < 300  # both kinds of graph were exercised


def test_signs_match_oracle_on_boolean_languages():
    # the 81 one-function Boolean languages of acceptance criterion 1
    mismatches = []
    for table in itertools.product((0, 1, 2), repeat=4):
        lang = Language(2, (CostFunction("f", 2, 2, table),))
        found = _sign_mismatches(lang, build_graph(lang))
        if found:
            mismatches.append((table, found))
    assert mismatches == []


def test_signs_match_oracle_when_the_search_walks_many_candidates():
    # the pool holds only the first function, a modular or sparse table with
    # few edges, so several components stay free; the second, a relabelled
    # distance, makes the search walk past the first candidate
    rng = random.Random(8080)
    mismatches = []
    walked = 0
    for _ in range(100):
        d = rng.randint(3, 4)
        perm = list(range(d))
        rng.shuffle(perm)
        if rng.random() < 0.5:
            g = [rng.randint(0, 3) for _ in range(d)]
            h = [rng.randint(0, 3) for _ in range(d)]
            first = tuple(g[x] + h[y] for x in range(d) for y in range(d))
        else:
            first = tuple(int(rng.random() < 0.1) for _ in range(d * d))
        dist = tuple(abs(perm[x] - perm[y]) for x in range(d) for y in range(d))
        lang = Language(d, (CostFunction("first", 2, d, first), CostFunction("dist", 2, d, dist)))
        graph = build_graph(lang, PoolBudget(max_views=1))
        found = _sign_mismatches(lang, graph)
        if found:
            mismatches.append((lang, found))
        _, stats = search_stp(lang, graph)
        walked += stats["components"] > 1 and stats["candidates"] > 1
    assert mismatches == []
    assert walked > 50


def test_signs_match_oracle_on_edgeless_graphs():
    # an edgeless graph leaves every label pair its own free component, so
    # the nogoods do all of the skipping; half the languages have INF entries
    rng = random.Random(5151)
    mismatches = []
    refuted_early = 0  # no certificate, found with fewer than 2^k verified
    for i in range(200):
        d = rng.randint(2, 4)
        fns = tuple(
            random_cost_function(rng, f"f{k}", d, rng.randint(2, 3), inf_prob=0.2 * (i % 2))
            for k in range(rng.randint(1, 2))
        )
        lang = Language(d, fns)
        nodes = all_pair_nodes(d)
        graph = PairGraph(d, nodes, (), Closure((), {}, frozenset(), frozenset()), Pool((), False))
        found = _sign_mismatches(lang, graph)
        if found:
            mismatches.append((lang, found))
        cert, stats = search_stp(lang, graph)
        refuted_early += cert is None and stats["candidates"] < 2 ** stats["components"]
    assert mismatches == []
    assert refuted_early > 100


def _shuffled(rng, d, table):
    perm = list(range(d))
    rng.shuffle(perm)
    return tuple(table[perm[x] * d + perm[y]] for x in range(d) for y in range(d))


def test_search_matches_the_walk_on_two_function_languages():
    # the pool holds only the first function, modular or sparse, so most
    # components stay free; the second, a relabelled submodular or Potts
    # table, fails candidates until a relabelled order or no mask is left
    rng = random.Random(6161)
    mismatches = []
    found = refuted = 0
    for _ in range(300):
        d = rng.randint(3, 6)
        if rng.random() < 0.5:
            g = [rng.randint(0, 3) for _ in range(d)]
            h = [rng.randint(0, 3) for _ in range(d)]
            first = tuple(g[x] + h[y] for x in range(d) for y in range(d))
        else:
            first = tuple(int(rng.random() < 0.1) for _ in range(d * d))
        if rng.random() < 0.7:
            u = [rng.randint(0, 4) for _ in range(d)]
            w = rng.randint(1, 3)
            second = tuple(u[x] + w * abs(x - y) + (x - y) ** 2 for x in range(d) for y in range(d))
        else:
            second = tuple(int(x == y) for x in range(d) for y in range(d))
        fns = (CostFunction("first", 2, d, first),
               CostFunction("second", 2, d, _shuffled(rng, d, second)))
        lang = Language(d, fns)
        graph = build_graph(lang, PoolBudget(max_views=1))
        cert, stats = search_stp(lang, graph)
        if (cert, stats) != oracles.walk_search_stp(lang, graph):
            mismatches.append(lang)
        found += cert is not None and stats["candidates"] > 1
        refuted += cert is None
    assert mismatches == []
    assert found > 50 and refuted > 20


def test_first_allowed_is_the_smallest_mask_no_nogood_agrees_with():
    # nogoods of up to four bits make the search backtrack, and a set that
    # allows no mask must end in None
    rng = random.Random(7373)
    wide = empty = 0
    for _ in range(400):
        k = rng.randint(1, 8)
        nogoods = set()
        for _ in range(rng.randint(0, 3 * k)):
            bits = 0
            for _ in range(rng.randint(1, min(4, k))):
                bits |= 1 << rng.randrange(k)
            nogoods.add((bits, rng.randrange(1 << k) & bits))
        allowed = [m for m in range(1 << k) if all(m & b != v for b, v in nogoods)]
        assert _first_allowed(nogoods, k) == (allowed[0] if allowed else None)
        empty += not allowed
        wide += any(bin(b).count("1") > 2 for b, _ in nogoods) and bool(allowed)
    assert empty > 20 and wide > 100
