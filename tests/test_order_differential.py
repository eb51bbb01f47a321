"""The order search against the permutation loop it replaced.

`find_submodular_order` used to try every permutation in lexicographic
sequence for a cyclic certificate, and none above eight labels.  It now
reruns the sign search and refuses every verified pair whose tournament has
a cyclic triangle.  `oracles.loop_submodular_order` is the loop, without its
label limit.  A cyclic pair is handed in as the certificate so that the
search always runs; the order search never verifies the certificate itself.
"""

import random

import pytest

import cvcsp.dichotomy as dichotomy
from cvcsp.dichotomy import find_submodular_order, search_stp, verify_multimorphism
from cvcsp.model import CostFunction, Language
from cvcsp.pairgraph import Closure, PairGraph, all_pair_nodes, build_graph
from corpus import random_cost_function, random_order, random_submodular_binary
from oracles import loop_submodular_order, min_max_pair
from test_dichotomy import cyclic_certificate, edgeless, swapped_distance3


def relabelled_distance(rng, d):
    """|rank(x) - rank(y)| under a random order: submodular under that order
    and its reverse, and under no other."""
    rank = {label: i for i, label in enumerate(random_order(rng, d))}
    table = tuple(abs(rank[x] - rank[y]) for x in range(d) for y in range(d))
    return Language(d, (CostFunction("dist", 2, d, table),)), rank


def random_language(rng, d):
    """One or two binary functions: random tables, tables submodular under
    one random order, or one of each, so that both outcomes are common."""
    order = random_order(rng, d)
    kind = rng.randrange(3)
    fns = []
    for k in range(rng.randint(1, 2)):
        if kind == 0 or (kind == 2 and k == 1):
            fns.append(random_cost_function(rng, f"f{k}", d, 2, max_cost=3))
        else:
            fns.append(random_submodular_binary(rng, f"f{k}", d, order))
    return Language(d, tuple(fns))


def _recording(monkeypatch):
    """Replace the module's search_stp with one that records each result."""
    runs = []
    original = dichotomy.search_stp

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        runs.append(result)
        return result

    monkeypatch.setattr(dichotomy, "search_stp", recording)
    return runs


def test_an_order_is_found_exactly_when_the_loop_finds_one(monkeypatch):
    rng = random.Random(2210)
    runs = _recording(monkeypatch)
    found = cases = 0
    mismatches = []
    for i in range(500):
        d = rng.randint(3, 6)
        lang = random_language(rng, d)
        graph = edgeless(d) if i % 2 else build_graph(lang).graph
        certificates = [cyclic_certificate(lang)]
        cert, _ = search_stp(lang, graph)  # the module's own, not the recording one
        if cert is not None:
            certificates.append(cert)
        for pair in certificates:
            runs.clear()
            order = find_submodular_order(lang, graph, pair)
            expected = loop_submodular_order(lang, pair)
            cases += 1
            if (order is None) != (expected is None):
                mismatches.append((lang, pair, order, expected))
            elif order is not None:
                found += 1
                if verify_multimorphism(min_max_pair(order), lang) is not None:
                    mismatches.append((lang, pair, order, "does not verify"))
            if pair is cert and dichotomy._cyclic_triangle(cert) is None:
                # a transitive certificate keeps the order it had, with no search
                assert order == expected and runs == []
            for _, stats in runs:
                # each candidate adds a new nogood: a violation touches at
                # most two components, a triangle's three label pairs take
                # two cyclic orientations
                k = stats["components"]
                assert stats["candidates"] <= 2 * k * k + 2 * (d * (d - 1) * (d - 2) // 6) + 1
    assert mismatches == []
    assert cases >= 700 and 100 < found < cases - 100, (cases, found)


@pytest.mark.parametrize("d", [9, 12])
@pytest.mark.parametrize("graph_kind", ["edgeless", "built"])
def test_cyclic_certificate_past_eight_labels_gets_an_order(d, graph_kind):
    # the loop tried no order above eight labels; the distance under a
    # shuffled order is submodular under that order and its reverse only
    lang, rank = relabelled_distance(random.Random(d), d)
    graph = edgeless(d) if graph_kind == "edgeless" else build_graph(lang).graph
    order = find_submodular_order(lang, graph, cyclic_certificate(lang))
    assert order is not None and verify_multimorphism(min_max_pair(order), lang) is None
    ranks = [rank[label] for label in order]
    assert ranks in (sorted(ranks), sorted(ranks, reverse=True))


def test_budget_run_out_in_the_order_search_gives_no_order(monkeypatch):
    # the swapped distance fails on mask 0, so a budget of one candidate is
    # spent before any order verifies; the search's BudgetExceeded stays inside
    lang = swapped_distance3()
    monkeypatch.setattr(dichotomy, "STP_CANDIDATE_BUDGET", 1)
    assert find_submodular_order(lang, edgeless(3), cyclic_certificate(lang)) is None
    monkeypatch.setattr(dichotomy, "STP_CANDIDATE_BUDGET", 3)
    assert find_submodular_order(lang, edgeless(3), cyclic_certificate(lang)) == (1, 2, 0)


def test_a_verified_pair_with_a_cyclic_triangle_is_refused():
    # the closure joins (0, 1) and (0, 2) with opposite signs, so mask 0
    # orients 0<1, 1<2 and 2<0; a unary holds under every conservative pair,
    # so the certificate is mask 0, and the order search refuses it for mask
    # 1, which orients 1<0<2
    nodes = all_pair_nodes(3)
    signs = {(0, 1): ((0, 1), 1), (0, 2): ((0, 1), -1)}
    graph = PairGraph(3, nodes, nodes, (), False, Closure((), signs, frozenset(), frozenset()))
    lang = Language(3, (CostFunction("u", 1, 3, (0, 1, 2)),))
    cert, stats = search_stp(lang, graph)
    assert stats["candidates"] == 1 and dichotomy._cyclic_triangle(cert) is not None
    assert find_submodular_order(lang, graph, cert) == (1, 0, 2)
