"""The order search against the permutation loop it replaced.

`find_submodular_order` used to try every permutation in lexicographic
sequence for a cyclic certificate, and none above eight labels.  Now the
sign search refuses every verified pair whose tournament has a cyclic
triangle, so its certificate is transitive whenever a min/max pair
verifies, and the order is that certificate's labels by wins.
`oracles.loop_submodular_order` is the loop, without its label limit.
"""

import math
import random

import pytest

import cvcsp.dichotomy as dichotomy
from cvcsp.dichotomy import find_submodular_order, search_stp, verify_multimorphism
from cvcsp.express import Pool
from cvcsp.model import CostFunction, Language
from cvcsp.pairgraph import Closure, PairGraph, all_pair_nodes, build_graph
from corpus import random_cost_function, random_order, random_submodular_binary
from oracles import loop_submodular_order, min_max_pair
from test_dichotomy import edgeless


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


def test_an_order_is_found_exactly_when_the_loop_finds_one():
    rng = random.Random(2210)
    found = 0
    mismatches = []
    for i in range(500):
        d = rng.randint(3, 6)
        lang = random_language(rng, d)
        graph = edgeless(d) if i % 2 else build_graph(lang)
        cert, stats = search_stp(lang, graph)
        order = find_submodular_order(cert) if cert is not None else None
        expected = loop_submodular_order(lang, cert)
        if cert is not None and verify_multimorphism(cert, lang) is not None:
            mismatches.append((lang, cert, "the certificate does not verify"))
        if (order is None) != (expected is None):
            mismatches.append((lang, cert, order, expected))
        elif order is not None:
            found += 1
            if verify_multimorphism(min_max_pair(order), lang) is not None:
                mismatches.append((lang, cert, order, "does not verify"))
        # each candidate adds a new nogood: a violation touches at most two
        # components, a triangle's three label pairs take two cyclic
        # orientations
        k = stats["components"]
        assert stats["candidates"] <= 2 * k * k + 2 * math.comb(d, 3) + 1
    assert mismatches == []
    assert 100 < found < 400, found


@pytest.mark.parametrize("d", [9, 12])
@pytest.mark.parametrize("graph_kind", ["edgeless", "built"])
def test_cyclic_certificate_past_eight_labels_gets_an_order(d, graph_kind):
    # the loop, which a cyclic certificate used to reach, tried no order
    # above eight labels; the distance under a shuffled order is submodular
    # under that order and its reverse only, and the search finds one
    lang, rank = relabelled_distance(random.Random(d), d)
    graph = edgeless(d) if graph_kind == "edgeless" else build_graph(lang)
    cert, _ = search_stp(lang, graph)
    order = find_submodular_order(cert)
    assert order is not None and verify_multimorphism(min_max_pair(order), lang) is None
    ranks = [rank[label] for label in order]
    assert ranks in (sorted(ranks), sorted(ranks, reverse=True))


def cyclic_first():
    # the closure joins (0, 1) and (0, 2) with opposite signs, so mask 0
    # orients 0<1, 1<2 and 2<0, and mask 1 orients 1<0<2; a unary holds
    # under every conservative pair, so both verify
    signs = {(0, 1): ((0, 1), 1), (0, 2): ((0, 1), -1)}
    closure = Closure((), signs, frozenset(), frozenset())
    graph = PairGraph(3, all_pair_nodes(3), (), closure, Pool((), False))
    return Language(3, (CostFunction("u", 1, 3, (0, 1, 2)),)), graph


def test_budget_run_out_in_the_order_search_gives_no_order(monkeypatch):
    # a budget of one candidate runs out after the cyclic mask 0 verified:
    # the search returns it rather than raise, and it has no order
    lang, graph = cyclic_first()
    monkeypatch.setattr(dichotomy, "STP_CANDIDATE_BUDGET", 1)
    cert, stats = search_stp(lang, graph)
    assert stats["candidates"] == 1 and dichotomy._cyclic_triangle(cert) is not None
    assert find_submodular_order(cert) is None
    monkeypatch.setattr(dichotomy, "STP_CANDIDATE_BUDGET", 2)
    cert, stats = search_stp(lang, graph)
    assert stats["candidates"] == 2 and find_submodular_order(cert) == (1, 0, 2)


def test_a_verified_pair_with_a_cyclic_triangle_is_refused(monkeypatch):
    # the certificate is mask 1, and each mask is verified once: the order
    # comes from the same run
    lang, graph = cyclic_first()
    calls = []

    def counting(pair, language):
        calls.append(pair)
        return verify_multimorphism(pair, language)

    monkeypatch.setattr(dichotomy, "verify_multimorphism", counting)
    cert, stats = search_stp(lang, graph)
    assert stats["candidates"] == 2 and find_submodular_order(cert) == (1, 0, 2)
    assert len(calls) == len(set(calls)) == 2
