"""Dinic's max-flow and the min-cut solver against the Edmonds-Karp oracle.

`oracles.edmonds_karp` is the augmenting-path loop the solver used before.
The minimal minimum cut does not depend on which maximum flow is found, so
both must return the same value, source side and cut value, and the solver
must decode the same assignment, cost and stats from either, in value and,
on its networks, in type.
"""

import random
from fractions import Fraction

from cvcsp import solver
from cvcsp.model import INF, CostFunction, VcspInstance
from cvcsp.solver import FlowNetwork, max_flow, solve_mincut
from corpus import random_order, random_submodular_binary, random_unary
from oracles import edmonds_karp


def random_capacity(rng):
    r = rng.random()
    if r < 0.15:
        return INF
    if r < 0.35:
        return Fraction(rng.randint(0, 12), rng.choice((2, 3, 5)))
    return rng.randint(0, 9)


def random_network(rng):
    n = rng.randint(2, 12)
    net = FlowNetwork(n)
    for _ in range(rng.randint(0, 4 * n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            net.add_arc(u, v, random_capacity(rng))
    return net


def test_max_flow_matches_edmonds_karp_on_random_networks():
    rng = random.Random(2004)
    infinite = 0
    for _ in range(600):
        net = random_network(rng)
        got = max_flow(net, 0, 1)
        want = edmonds_karp(net, 0, 1)
        # equal values; an integral flow value may be an int on one side and
        # a Fraction on the other, as the augmenting order decides
        assert got == want
        infinite += got[0] is INF
    assert 20 < infinite < 580  # both outcomes are exercised


def fraction_table(rng, f):
    den = rng.choice((2, 3, 4, 6))
    return CostFunction(f.name, f.arity, f.domain_size, tuple(Fraction(v, den) for v in f.table))


def random_grid_instance(rng, width, height, d, fractions):
    order = random_order(rng, d)
    tables = [random_submodular_binary(rng, f"b{k}", d, order, 6) for k in range(3)]
    if fractions:
        tables = [fraction_table(rng, f) if rng.random() < 0.7 else f for f in tables]
    terms = []
    for v in range(width * height):
        if rng.random() < 0.9:
            u = random_unary(rng, f"u{v}", d, 9)
            if fractions and rng.random() < 0.5:
                u = fraction_table(rng, u)
            terms.append((u, (v,)))
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                terms.append((rng.choice(tables), (v, v + 1)))
            if y + 1 < height:
                terms.append((rng.choice(tables), (v, v + width)))
    return VcspInstance(width * height, tuple(terms)), order


def solver_corpus():
    rng = random.Random(2003)
    corpus = []
    for k in range(320):
        d = 2 + k % 4
        if k % 2:
            width, height = 1, rng.randint(2, 12)  # a chain
        else:
            width, height = rng.randint(2, 6), rng.randint(2, 6)
        corpus.append(random_grid_instance(rng, width, height, d, rng.random() < 0.3))
    return corpus


def test_solve_mincut_matches_edmonds_karp_solver(monkeypatch):
    corpus = solver_corpus()
    assert sum(
        any(isinstance(v, Fraction) for f, _ in inst.terms for v in f.table)
        for inst, _ in corpus
    ) > 50
    dinic = [solve_mincut(inst, order) for inst, order in corpus]
    monkeypatch.setattr(solver, "max_flow", edmonds_karp)
    for (inst, order), got in zip(corpus, dinic):
        want = solve_mincut(inst, order)
        assert repr(got) == repr(want)
        assert [type(v) for v in got.stats.values()] == [type(v) for v in want.stats.values()]
        assert type(got.cost) is type(want.cost)

