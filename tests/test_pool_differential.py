"""The batched pool and the normal-form edge scan against the code they replaced.

`oracles.enumerate_binary_pool` builds every candidate as a named view,
chains each middle pair in O(d^3) and pins each slice three times;
`oracles.detect_edges` scans every view and quadruple.  The pools must agree
view by view (order, table, name, provenance, leak flag) and in the
truncation flag; the detected edges must agree in endpoints, softness,
witnessing view (by identity) and quadruple.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cvcsp.model import INF, CostFunction, Language
from cvcsp.express import (
    BinaryView,
    PoolBudget,
    add_unaries_view,
    enumerate_binary_pool,
    transpose_view,
)
from cvcsp.pairgraph import detect_edges
from corpus import random_cost_function
import oracles

BUDGETS = [
    PoolBudget(max_views=views, chain_depth=depth)
    for views, depth in itertools.product((16, 64), (0, 1, 2))
]


def _view_record(view):
    return (
        view.table.table,
        view.table.name,
        view.provenance,
        view.penalty_leaked,
    )


def _edge_record(edge):
    return (edge.endpoints, edge.soft, id(edge.view), edge.quad)


def _mismatches(lang, budget):
    pool = enumerate_binary_pool(lang, budget)
    expected = oracles.enumerate_binary_pool(lang, budget)
    out = []
    if pool.truncated != expected.truncated:
        out.append("truncated")
    if [_view_record(v) for v in pool.views] != [_view_record(v) for v in expected.views]:
        out.append("views")
    edges = detect_edges(pool.views, lang.domain_size)
    expected_edges = oracles.detect_edges(pool.views, lang.domain_size)
    if [_edge_record(e) for e in edges] != [_edge_record(e) for e in expected_edges]:
        out.append("edges")
    return out


def _general_valued_corpus(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        arity = rng.randint(2, 4)
        d = rng.randint(2, 3 if arity == 4 else 4)
        fns = [random_cost_function(rng, "f0", d, arity, inf_prob=0.25)]
        if rng.random() < 0.5:
            fns.append(random_cost_function(rng, "f1", d, 2, inf_prob=0.25))
        out.append(Language(d, tuple(fns)))
    return out


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: f"v{b.max_views}-c{b.chain_depth}")
def test_pool_and_edges_match_oracle_on_loop_free_corpus(loop_free_500, budget):
    # the fixture's first 200 entries are loop_free_corpus(200, seed=20120)
    mismatches = []
    for lang, _, _ in loop_free_500[:200]:
        found = _mismatches(lang, budget)
        if found:
            mismatches.append((lang, found))
    assert mismatches == []


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: f"v{b.max_views}-c{b.chain_depth}")
def test_pool_and_edges_match_oracle_with_infinite_entries(budget):
    mismatches = []
    leaked = hard = 0
    for lang in _general_valued_corpus(300, seed=6161):
        found = _mismatches(lang, budget)
        if found:
            mismatches.append((lang, found))
        pool = enumerate_binary_pool(lang, budget)
        leaked += any(v.penalty_leaked for v in pool.views)
        hard += any(not e.soft for e in detect_edges(pool.views, lang.domain_size))
    assert mismatches == []
    # leaking pins and hard edges were exercised
    assert leaked > 0 and hard > 0


def _relatives(view, rng):
    """Views whose exchange tests equal the view's or differ from them."""
    d = view.domain_size
    t = view.table.table
    out = [view, transpose_view(view)]
    u1 = [rng.randint(0, 3) for _ in range(d)]
    u2 = [rng.randint(0, 3) for _ in range(d)]
    out.append(add_unaries_view(view, u1, u2))
    top = max((v for v in t if v is not INF), default=0)
    flipped = tuple(INF if v is INF else top - v for v in t)  # reverses the finite tests
    out.append(BinaryView(CostFunction(view.table.name + "-", 2, d, flipped), ("base", "flipped")))
    swapped = t[d:2 * d] + t[:d] + t[2 * d:]  # rows 0 and 1 exchanged
    out.append(BinaryView(CostFunction(view.table.name + "~", 2, d, swapped), ("base", "swapped")))
    return out


def test_detection_matches_oracle_on_related_views():
    # the scan skips a view whose normal form or its transpose was scanned;
    # duplicates, transposes and unary shifts may be skipped, flipped or
    # relabelled tables may not
    rng = random.Random(77)
    for case in range(150):
        d = rng.randint(2, 4)
        inf_prob = 0.3 if case % 2 else 0.0
        lang = Language(d, (random_cost_function(rng, "f", d, 2, inf_prob=inf_prob),))
        views = []
        for view in enumerate_binary_pool(lang, PoolBudget(max_views=8)).views:
            views.extend(_relatives(view, rng))
        views = views + views[::-1]
        rng.shuffle(views)
        edges = detect_edges(views, d)
        assert [_edge_record(e) for e in edges] == [
            _edge_record(e) for e in oracles.detect_edges(views, d)
        ]


def test_pool_entries_are_canonical_costs():
    # half-valued tables whose sums, pins and penalties are often integral:
    # every entry must be an int or a non-integral Fraction
    half = Fraction(1, 2)
    rng = random.Random(5)
    d = 3
    binary = CostFunction("h", 2, d, tuple(half * rng.randint(0, 3) for _ in range(d * d)))
    ternary = CostFunction(
        "t", 3, d, tuple(half * rng.randint(0, 3) for _ in range(d ** 3))
    )
    crisp = CostFunction(
        "c", 2, d, tuple(INF if x == y == 2 else half * (x + y) for x in range(d) for y in range(d))
    )
    lang = Language(d, (binary, ternary, crisp))
    pool = enumerate_binary_pool(lang, PoolBudget(max_views=256, chain_depth=1))
    integral = 0
    for view in pool.views:
        for v in view.table.table:
            if v is INF:
                continue
            if isinstance(v, Fraction):
                assert v.denominator != 1, (view.table.name, v)
            else:
                assert type(v) is int, (view.table.name, v)
                integral += 1
    assert integral > 0
