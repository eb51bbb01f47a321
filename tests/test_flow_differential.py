"""The Boykov-Kolmogorov max-flow and the min-cut solver against the
Edmonds-Karp and Dinic oracles.

`oracles.edmonds_karp` is the augmenting-path loop the solver used first,
and `oracles.dinic` the level-graph loop that followed it; Dinic's also
checks networks too large for Edmonds-Karp.  The minimal minimum cut does
not depend on which maximum flow is found, so all must return the same
value, source side and cut value, and the solver must decode the same
assignment, cost and stats from each, in value and, on its networks, in
type.
"""

import random
from fractions import Fraction

import pytest

from cvcsp import solver
from cvcsp.model import INF, CostFunction, VcspInstance
from cvcsp.solver import FlowNetwork, max_flow, solve_mincut
from corpus import random_order, random_submodular_binary, random_unary
from oracles import add_arc, dinic, edmonds_karp


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
            add_arc(net, u, v, random_capacity(rng))
    return net


def test_max_flow_matches_edmonds_karp_on_random_networks():
    rng = random.Random(2004)
    infinite = wide = 0
    for _ in range(600):
        net = random_network(rng)
        got, want = max_flow(net, 0, 1), edmonds_karp(net, 0, 1)
        # max_flow reads its source side off the source tree: it must be the
        # set the oracle's breadth-first search reaches over residual arcs
        assert got[1] == want[1]
        # equal values; an integral flow value may be an int on one side and
        # a Fraction on the other, as the augmenting order decides
        assert got == want
        assert got == dinic(net, 0, 1)
        infinite += got[0] is INF
        wide += got[1] is not None and len(got[1]) > 1
    assert 20 < infinite < 580  # both outcomes are exercised
    assert wide > 100  # and so are source sides beyond the source alone


# Networks on which a greedy 2- or 3-arc path from the source (0) to the
# sink (1) would pass through a terminal.  The pre-flow keeps both terminals
# off its paths: with an arc from the sink back to the source beside a
# direct source-sink arc, the path source -> sink -> source -> sink uses the
# direct arc twice and pushes its residual capacity below zero.
THROUGH_A_TERMINAL = {
    "direct-arc-and-inf-arc-back": [
        (0, 1, 3), (0, 3, 3), (0, 3, 1), (2, 1, INF), (3, 2, 4), (1, 0, INF),
    ],
    "direct-arc-inf-arc-back-two-paths": [
        (0, 1, 2), (1, 0, INF), (3, 0, 2), (3, 2, 2), (3, 1, 3), (2, 1, 2), (0, 3, 4),
    ],
    # network 570 of the random test: an INF arc u -> source beside a
    # source -> sink arc, with u -> sink as well
    "network-570": [
        (0, 3, 2), (1, 0, 1), (2, 3, 4), (0, 1, 4), (1, 2, 7), (3, 0, INF),
        (1, 0, 8), (3, 0, 8), (3, 1, 2), (1, 3, Fraction(8, 5)),
    ],
    "direct-arc-only": [(0, 1, 5), (1, 0, 2)],
    "inf-on-a-2-arc-path": [(0, 2, INF), (2, 1, 3), (0, 1, 1), (1, 0, 4)],
    "inf-on-a-3-arc-path": [
        (0, 2, 2), (2, 3, INF), (3, 1, 5), (0, 1, 2), (1, 0, INF), (3, 0, INF),
    ],
    "all-inf-3-arc-path": [(0, 2, INF), (2, 3, INF), (3, 1, INF), (0, 1, 1)],
}


@pytest.mark.parametrize("scale", [1, Fraction(1, 3)], ids=["int", "thirds"])
@pytest.mark.parametrize("name", sorted(THROUGH_A_TERMINAL))
def test_max_flow_keeps_terminals_off_the_pre_flow_paths(name, scale):
    arcs = THROUGH_A_TERMINAL[name]
    net = FlowNetwork(1 + max(max(u, v) for u, v, _ in arcs))
    for u, v, c in arcs:
        add_arc(net, u, v, c if c is INF else c * scale)
    got, want = max_flow(net, 0, 1), edmonds_karp(net, 0, 1)
    assert got[1] == want[1]  # the source tree is the BFS-reachable set
    assert got == want == dinic(net, 0, 1)
    assert (got[0] is INF) == (name == "all-inf-3-arc-path")


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


def assert_same_as_oracles(monkeypatch, cases, oracles):
    """solve_mincut on each (instance, order) gives the same repr and value
    types with max_flow as with each oracle in its place."""
    got = [solve_mincut(inst, order) for inst, order in cases]
    for oracle in oracles:
        monkeypatch.setattr(solver, "max_flow", oracle)
        for (inst, order), result in zip(cases, got):
            want = solve_mincut(inst, order)
            assert repr(result) == repr(want)
            assert list(map(type, result.stats.values())) == list(map(type, want.stats.values()))
            assert type(result.cost) is type(want.cost)


def test_solve_mincut_matches_edmonds_karp_solver(monkeypatch):
    corpus = solver_corpus()
    assert sum(
        any(isinstance(v, Fraction) for f, _ in inst.terms for v in f.table)
        for inst, _ in corpus
    ) > 50
    assert_same_as_oracles(monkeypatch, corpus, (edmonds_karp, dinic))


def dist_instance(rng, d, n, edges):
    """`dist` on the edges, with a random unary of costs 0..8 on every node,
    as in the grids of the solve-mix benchmark workload."""
    dist = CostFunction("dist", 2, d, tuple(abs(x - y) for x in range(d) for y in range(d)))
    terms = [(random_unary(rng, f"u{v}", d, 8), (v,)) for v in range(n)]
    terms += [(dist, edge) for edge in edges]
    return VcspInstance(n, tuple(terms)), tuple(range(d))


def grid_edges(side):
    across = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    down = [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return across + down


def test_solve_mincut_matches_both_oracles_on_workload_grids(monkeypatch):
    rng = random.Random(2020)
    cases = [dist_instance(rng, 4, 400, grid_edges(20))]
    cases += [dist_instance(rng, 8, 64, grid_edges(8)) for _ in range(3)]
    assert_same_as_oracles(monkeypatch, cases, (edmonds_karp, dinic))


def random_edges(rng, n, m):
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


@pytest.mark.parametrize(
    "shape, d, n, edges",
    [
        ("K40", 4, 40, [(u, v) for u in range(40) for v in range(u + 1, 40)]),
        ("K30", 8, 30, [(u, v) for u in range(30) for v in range(u + 1, 30)]),
        ("path", 8, 3000, [(v, v + 1) for v in range(2999)]),
        ("grid40", 4, 1600, grid_edges(40)),
        ("random", 6, 500, random_edges(random.Random(2021), 500, 3000)),
    ],
    ids=["K40-d4", "K30-d8", "path3000-d8", "grid40-d4", "random500-d6"],
)
def test_solve_mincut_matches_dinic_on_larger_shapes(monkeypatch, shape, d, n, edges):
    rng = random.Random(f"{shape}-{d}")
    assert_same_as_oracles(monkeypatch, [dist_instance(rng, d, n, edges)], (dinic,))
