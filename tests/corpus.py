"""Seeded random corpora shared across the test modules."""

import random

from cvcsp.model import INF, CostFunction, Language, VcspInstance
from cvcsp.express import PoolBudget
from cvcsp.pairgraph import build_graph


def random_cost_function(rng, name, d, arity, max_cost=4, inf_prob=0.0):
    size = d ** arity
    table = []
    for _ in range(size):
        if inf_prob and rng.random() < inf_prob:
            table.append(INF)
        else:
            table.append(rng.randint(0, max_cost))
    return CostFunction(name, arity, d, tuple(table))


def random_finite_language(rng, max_domain=4, max_functions=2, max_arity=3, max_cost=4):
    d = rng.randint(2, max_domain)
    count = rng.randint(1, max_functions)
    fns = tuple(
        random_cost_function(rng, f"f{i}", d, rng.randint(2, max_arity), max_cost)
        for i in range(count)
    )
    return Language(d, fns)


def random_binary_language(rng, max_domain=4, max_functions=3, max_cost=4):
    d = rng.randint(2, max_domain)
    count = rng.randint(1, max_functions)
    fns = tuple(
        random_cost_function(rng, f"f{i}", d, 2, max_cost) for i in range(count)
    )
    return Language(d, fns)


def random_unary(rng, name, d, max_cost=4):
    return CostFunction(name, 1, d, tuple(rng.randint(0, max_cost) for _ in range(d)))


def loop_free_corpus(count, seed, budget=PoolBudget(max_views=48)):
    """Finite-valued languages whose closed graphs carry no soft self-loop.

    Yields (language, graph, pool) triples; candidates are drawn until the
    requested number pass the filter, so the corpus is deterministic for a
    fixed seed.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lang = random_finite_language(rng)
        graph = build_graph(lang, budget)
        if graph.closure.contradicted & graph.closure.soft:
            continue
        out.append((lang, graph, graph.pool))
    return out


def random_order(rng, d):
    order = list(range(d))
    rng.shuffle(order)
    return tuple(order)


def random_submodular_binary(rng, name, d, order, max_cost=4):
    """A binary table submodular under the order, built from second
    differences: non-positive curvature guarantees the property exactly."""
    u = [rng.randint(0, max_cost) for _ in range(d)]
    v = [rng.randint(0, max_cost) for _ in range(d)]
    curv = [[rng.randint(0, 2) for _ in range(d)] for _ in range(d)]
    b = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            acc = u[i] + v[j]
            for s in range(1, i + 1):
                for t in range(1, j + 1):
                    acc -= curv[s][t]
            b[i][j] = acc
    low = min(min(row) for row in b)
    shift = -low if low < 0 else 0
    table = [0] * (d * d)
    for x in range(d):
        for y in range(d):
            table[x * d + y] = b[order.index(x)][order.index(y)] + shift
    return CostFunction(name, 2, d, tuple(table))


def random_submodular_instance(rng, max_nodes=8, max_domain=4, max_cost=4):
    """Unary plus binary terms, all binary tables submodular under one order."""
    d = rng.randint(2, max_domain)
    n = rng.randint(2, max_nodes)
    order = random_order(rng, d)
    terms = []
    for i in range(n):
        if rng.random() < 0.8:
            terms.append((random_unary(rng, f"u{i}", d, max_cost), (i,)))
    n_binary = rng.randint(1, max(1, n))
    for k in range(n_binary):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        terms.append((random_submodular_binary(rng, f"b{k}", d, order, max_cost), (u, v)))
    return VcspInstance(node_count=n, terms=tuple(terms)), order, d
