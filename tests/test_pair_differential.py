"""The verified pair as the certificate, against the two-copy builders.

The search and the general-valued branch used to keep a sign assignment
beside the pair built from it: `oracles.candidate_sign` gave each
candidate's signs, their restriction to M the general-valued ones, and
`oracles.build_meet_join` checked them and built the pair.  The library
now builds every pair with one rule, and the report reads the signs back
off the pair, +1 exactly when (a, b) has meet a.  Each case here is one
graph and one candidate mask.
"""

import random

from cvcsp.cli import classification_report
from cvcsp.express import Pool, PoolBudget
from cvcsp.pairgraph import Closure, PairGraph, all_pair_nodes, build_graph
from cvcsp.dichotomy import TRACTABLE, Classification, sign_pair
from cvcsp.model import Language
from corpus import random_cost_function
import oracles


def _roots(graph):
    d = graph.domain_size
    return sorted({graph.sign_of((a, b))[0] for a in range(d) for b in range(a + 1, d)})


def _mismatches(lang, graph, mask):
    """How sign_pair and the report's sigma differ from the old builders at
    one candidate mask: an empty list when they agree."""
    roots = _roots(graph)
    bit = {root: 1 << k for k, root in enumerate(roots)}
    flipped = {root for k, root in enumerate(roots) if mask >> k & 1}
    m_set = set(graph.M)
    sign = oracles.candidate_sign(graph, flipped)
    on_m = oracles.SignAssignment(tuple((p, s) for p, s in sign.entries if p in m_set))
    expected = oracles.build_meet_join(on_m, graph.M, graph.domain_size)
    pair = sign_pair(graph, mask, bit)
    out = []
    if pair != expected:
        out.append("pair")
    cls = Classification(verdict=TRACTABLE, certificate=pair, graph=graph)
    sigma = classification_report(lang, cls)["certificate"]["sigma"]
    if list(sigma.items()) != [(f"{a},{b}", s) for (a, b), s in on_m.entries]:
        out.append("sigma")
    return out


def test_sign_pair_and_sigma_match_the_old_builders():
    rng = random.Random(1212)
    cases = 0
    masks_seen = set()
    contradicted = general = 0
    mismatches = []
    # edgeless graphs: every label pair is its own component, so with four
    # labels all 2^6 masks are reachable
    for d in (2, 3, 4):
        nodes = all_pair_nodes(d)
        graph = PairGraph(d, nodes, (), Closure((), {}, frozenset(), frozenset()), Pool((), False))
        lang = Language(d, ())
        for mask in range(1 << (d * (d - 1) // 2)):
            cases += 1
            masks_seen.add((d, mask))
            found = _mismatches(lang, graph, mask)
            if found:
                mismatches.append((d, mask, found))
    # seeded languages, a third of them general-valued: the first candidate,
    # the all-flipped one and two at random on each closed graph
    for i in range(600):
        d = rng.randint(2, 5)
        inf_prob = 0.2 if i % 3 == 0 else 0.0
        fns = tuple(
            random_cost_function(rng, f"f{k}", d, 2, inf_prob=inf_prob)
            for k in range(rng.randint(1, 2))
        )
        lang = Language(d, fns)
        graph = build_graph(lang, PoolBudget(max_views=16))
        general += not lang.is_finite_valued()
        contradicted += bool(graph.closure.contradicted)
        full = (1 << len(_roots(graph))) - 1
        for mask in {0, full, rng.randint(0, full), rng.randint(0, full)}:
            cases += 1
            found = _mismatches(lang, graph, mask)
            if found:
                mismatches.append((lang, mask, found))
    assert mismatches == []
    assert cases >= 1000 and len(masks_seen) == 2 + 8 + 64
    assert general > 100 and contradicted > 100

