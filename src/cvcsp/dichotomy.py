"""Tournament-pair search and the tractable / NP-hard classification.

A conservative commutative operation pair over the domain is encoded by one
sign per unordered label pair: +1 orients the pair so the ascending label is
the meet.  Pair-graph edges force opposite signs on their endpoints, so the
closed graph acts as a sound pruning device (unit propagation over sign
variables); the verdict itself always rests on exhaustive enumeration of
the surviving sign patterns, each verified against the full multimorphism
inequality.  Absence of an edge is never trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .model import INF, BudgetExceeded, InputError, Language
from .express import Pool, PoolBudget
from .pairgraph import (
    PairGraph,
    all_pair_nodes,
    bar,
    build_graph,
    find_soft_self_loop,
)

TRACTABLE = "TRACTABLE"
NP_HARD = "NP_HARD"
GENERAL_CONJECTURED_TRACTABLE = "GENERAL_CONJECTURED_TRACTABLE"
GENERAL_UNKNOWN = "GENERAL_UNKNOWN"


@dataclass(frozen=True)
class SignAssignment:
    """A +/-1 orientation on pair nodes, antisymmetric under component swap."""

    entries: tuple  # sorted ((a, b), sign)

    @cached_property
    def sigma(self) -> dict:
        return dict(self.entries)

    def check(self, adj: dict) -> None:
        sigma = self.sigma
        for p, s in self.entries:
            if sigma.get(bar(p)) != -s:
                raise InputError(f"sign of {p} and {bar(p)} must be opposite")
        for p, neighbors in adj.items():
            for q in neighbors:
                if sigma[p] != -sigma[q]:
                    raise InputError(f"edge {p}--{q} joins equal signs")


@dataclass(frozen=True)
class TwoColorConflict:
    kind: str  # "odd-cycle" | "mirror-parity"
    nodes: tuple
    witness: tuple


def two_color(m_nodes: tuple, adj: dict):
    """Assign alternating signs component by component.

    Components are processed in order of their smallest node, the
    representative is that smallest node, and a free choice is always +1.
    Returns a SignAssignment, or a TwoColorConflict carrying an explicit
    odd cycle / equal-parity mirror pair when propagation contradicts.
    """
    sigma: dict = {}
    seen: set = set()
    for start in sorted(m_nodes):
        if start in seen:
            continue
        rep_sign = -sigma[bar(start)] if bar(start) in sigma else 1
        sigma[start] = rep_sign
        seen.add(start)
        parents = {start: None}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in sigma:
                        sigma[v] = -sigma[u]
                        seen.add(v)
                        parents[v] = u
                        nxt.append(v)
                    elif sigma[v] == sigma[u]:
                        cycle = _conflict_cycle(parents, u, v)
                        return TwoColorConflict("odd-cycle", (u, v), cycle)
            frontier = nxt
    for p in sorted(m_nodes):
        if sigma[p] != -sigma[bar(p)]:
            return TwoColorConflict("mirror-parity", (p, bar(p)), (p, bar(p)))
    return SignAssignment(entries=tuple(sorted(sigma.items())))


def _conflict_cycle(parents: dict, u: tuple, v: tuple) -> tuple:
    def up(node):
        path = [node]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        return path

    pu, pv = up(u), up(v)
    pv_set = set(pv)
    common = next(n for n in pu if n in pv_set)
    left = pu[: pu.index(common) + 1]
    right = pv[: pv.index(common)]
    return tuple(left + list(reversed(right)))


@dataclass(frozen=True)
class OperationPair:
    """Meet/join tables over D x D, flattened row-major."""

    domain_size: int
    meet: tuple
    join: tuple

    def meet_of(self, a: int, b: int) -> int:
        return self.meet[a * self.domain_size + b]

    def join_of(self, a: int, b: int) -> int:
        return self.join[a * self.domain_size + b]

    def is_conservative(self) -> bool:
        d = self.domain_size
        return all(
            {self.meet_of(a, b), self.join_of(a, b)} == {a, b}
            for a in range(d)
            for b in range(d)
        )

    def is_idempotent(self) -> bool:
        return all(
            self.meet_of(a, a) == a and self.join_of(a, a) == a
            for a in range(self.domain_size)
        )

    def commutative_on(self, nodes) -> bool:
        return all(
            self.meet_of(a, b) == self.meet_of(b, a)
            and self.join_of(a, b) == self.join_of(b, a)
            for a, b in nodes
        )


def build_meet_join(sign: SignAssignment, m_nodes, m_bar_nodes, domain_size: int) -> OperationPair:
    """Orient every label pair: by sign on loop-free pairs, projection elsewhere."""
    sigma = sign.sigma
    m_set = set(m_nodes)
    for p in m_nodes:
        if p not in sigma:
            raise InputError(f"sign assignment does not cover {p}")
        if sigma.get(bar(p)) != -sigma[p]:
            raise InputError(f"signs of {p} and {bar(p)} must be opposite")
    d = domain_size
    meet = [0] * (d * d)
    join = [0] * (d * d)
    for a in range(d):
        for b in range(d):
            if a == b:
                lo = hi = a
            elif (a, b) in m_set:
                lo, hi = (a, b) if sigma[(a, b)] == 1 else (b, a)
            else:
                lo, hi = a, b
            meet[a * d + b] = lo
            join[a * d + b] = hi
    return OperationPair(domain_size=d, meet=tuple(meet), join=tuple(join))


@dataclass(frozen=True)
class Violation:
    function_name: str
    x: tuple
    y: tuple
    lhs: object
    rhs: object


def _check_function(pair: OperationPair, f, max_hamming=None):
    """First inequality violation of the pair on f, or None."""
    d = f.domain_size
    meet, join = pair.meet, pair.join
    table = f.table
    dom = [(args, v) for args, v in zip(f.tuples(), table) if v is not INF]
    for x, fx in dom:
        for y, fy in dom:
            if max_hamming is not None:
                diff = sum(1 for xa, ya in zip(x, y) if xa != ya)
                if diff > max_hamming:
                    continue
            mi = ji = 0
            for xa, ya in zip(x, y):
                mi = mi * d + meet[xa * d + ya]
                ji = ji * d + join[xa * d + ya]
            lhs = table[mi] + table[ji]
            if lhs > fx + fy:
                return Violation(f.name, x, y, lhs, fx + fy)
    return None


def verify_multimorphism(pair: OperationPair, lang: Language, mode: str = "full", pool=None):
    """Check the componentwise inequality for every function and domain pair.

    full: every function, every pair of finite-cost argument tuples.
    delta2: pairs differing in at most two coordinates, plus every pooled
    binary view (views are binary, so they are checked in full).
    Returns None when the pair is a multimorphism, else the first violation.
    """
    if mode not in ("full", "delta2"):
        raise InputError(f"unknown verification mode {mode!r}")
    max_hamming = None if mode == "full" else 2
    for f in lang.functions:
        hit = _check_function(pair, f, max_hamming)
        if hit is not None:
            return hit
    if mode == "delta2" and pool is not None:
        for view in pool.views:
            hit = _check_function(pair, view.table)
            if hit is not None:
                return hit
    return None


@dataclass(frozen=True)
class StpCertificate:
    pair: OperationPair
    sign: SignAssignment
    verified_against: tuple
    mode_used: str


@dataclass(frozen=True)
class SearchLimits:
    stp_domain_limit: int = 8
    stp_candidate_budget: int = 1 << 20
    order_domain_limit: int = 8


def _sign_variables(domain_size: int):
    pairs = sorted((a, b) for a in range(domain_size) for b in range(a + 1, domain_size))
    return pairs, {p: i for i, p in enumerate(pairs)}


def _propagate_edge_constraints(graph: PairGraph, var_index: dict):
    """Merge sign variables forced equal/opposite by graph edges.

    Returns (component roots, relative sign per var) or None when an edge
    contradicts every orientation (a self-loop does exactly that).
    """
    n = len(var_index)
    parent = list(range(n))
    rel = [1] * n  # sign relative to the component root

    def find(i):
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        sign = 1
        for node in reversed(path):
            sign *= rel[node]
            parent[node] = i
            rel[node] = sign
        return i

    def var_of(p):
        if p[0] < p[1]:
            return var_index[p], 1
        return var_index[bar(p)], -1

    for e in graph.edges:
        p, q = e.endpoints
        u, eu = var_of(p)
        v, ev = var_of(q)
        relation = -eu * ev  # s_u = relation * s_v
        ru, rv = find(u), find(v)
        su, sv = rel[u], rel[v]
        if ru == rv:
            if su != relation * sv:
                return None
        else:
            # attach rv under ru so that s_u = relation * s_v keeps holding
            parent[rv] = ru
            rel[rv] = su * relation * sv
    roots = sorted({find(i) for i in range(n)})
    for i in range(n):
        find(i)
    return roots, parent, rel


def search_stp(lang: Language, graph: PairGraph, limits: SearchLimits = SearchLimits()):
    """Complete search over conservative commutative pairs, graph-pruned.

    Returns (certificate | None, stats).  Soundness: every graph edge is a
    true member of the edge set, so the sign constraints it induces hold for
    every tournament-pair multimorphism; pruning never removes a verifiable
    candidate.
    """
    d = lang.domain_size
    if d > limits.stp_domain_limit:
        raise BudgetExceeded(
            f"tournament search limited to domain size {limits.stp_domain_limit}, got {d}"
        )
    pairs, var_index = _sign_variables(d)
    stats = {"candidates": 0, "cache_hits": 0, "components": 0, "contradiction": False}
    propagated = _propagate_edge_constraints(graph, var_index)
    if propagated is None:
        stats["contradiction"] = True
        return None, stats
    roots, parent, rel = propagated

    def find_root(i):
        sign = 1
        while parent[i] != i:
            sign *= rel[i]
            i = parent[i]
        return i, sign

    stats["components"] = len(roots)
    if 1 << len(roots) > limits.stp_candidate_budget:
        raise BudgetExceeded(
            f"{len(roots)} free sign components exceed the candidate budget"
        )
    root_pos = {r: k for k, r in enumerate(roots)}
    violation_cache: list = []  # (function, x, y) triples seen to fail before
    nodes = all_pair_nodes(d)
    for mask in range(1 << len(roots)):
        root_signs = [1 if not (mask >> k) & 1 else -1 for k in range(len(roots))]
        sigma = {}
        for p in pairs:
            r, s = find_root(var_index[p])
            value = root_signs[root_pos[r]] * s
            sigma[p] = value
            sigma[bar(p)] = -value
        sign = SignAssignment(entries=tuple(sorted(sigma.items())))
        pair = build_meet_join(sign, nodes, (), d)
        stats["candidates"] += 1
        if _violates_cached(pair, violation_cache):
            stats["cache_hits"] += 1
            continue
        hit = verify_multimorphism(pair, lang, mode="full")
        if hit is None:
            cert = StpCertificate(
                pair=pair,
                sign=sign,
                verified_against=tuple(f.name for f in lang.functions),
                mode_used="full",
            )
            return cert, stats
        violation_cache.append((lang.get(hit.function_name), hit.x, hit.y))
    return None, stats


def _violates_cached(pair: OperationPair, cache: list) -> bool:
    d = pair.domain_size
    for f, x, y in cache:
        mi = ji = 0
        for xa, ya in zip(x, y):
            mi = mi * d + pair.meet[xa * d + ya]
            ji = ji * d + pair.join[xa * d + ya]
        if f.table[mi] + f.table[ji] > f.value(x) + f.value(y):
            return True
    return False


def min_max_pair(order: tuple) -> OperationPair:
    """The meet/join pair induced by a total order on the labels."""
    d = len(order)
    rank = {label: i for i, label in enumerate(order)}
    meet = [0] * (d * d)
    join = [0] * (d * d)
    for a in range(d):
        for b in range(d):
            lo, hi = (a, b) if rank[a] <= rank[b] else (b, a)
            meet[a * d + b] = lo
            join[a * d + b] = hi
    return OperationPair(domain_size=d, meet=tuple(meet), join=tuple(join))


def find_submodular_order(lang: Language, cert: StpCertificate, limits: SearchLimits = SearchLimits()):
    """A total order under which plain min/max verifies, or None.

    The certificate's own tournament is tried first (when transitive it is
    an order and verification is immediate); otherwise all orders are tried
    in lexicographic sequence.
    """
    d = lang.domain_size
    pair = cert.pair
    wins = [sum(1 for b in range(d) if b != a and pair.meet_of(a, b) == a) for a in range(d)]
    if sorted(wins) == list(range(d)) and pair.commutative_on(all_pair_nodes(d)):
        order = tuple(sorted(range(d), key=lambda a: -wins[a]))
        if verify_multimorphism(min_max_pair(order), lang, mode="full") is None:
            return order
    if d > limits.order_domain_limit:
        return None
    for perm in itertools.permutations(range(d)):
        if verify_multimorphism(min_max_pair(perm), lang, mode="full") is None:
            return perm
    return None


@dataclass(frozen=True)
class Classification:
    verdict: str
    certificate: object = None
    witness: object = None
    reason: str = ""
    submodular_order: tuple = None
    graph: PairGraph = None
    stats: dict = field(default_factory=dict)
    pool: Pool = None  # the views the graph was detected from


@dataclass(frozen=True)
class ClassifyConfig:
    pool: PoolBudget = PoolBudget()
    limits: SearchLimits = SearchLimits()


def classify(lang: Language, config: ClassifyConfig = ClassifyConfig()) -> Classification:
    """Full pipeline: pool, graph, then verdict.

    Finite-valued languages get the complete tournament search (sound and
    complete regardless of pool coverage).  General-valued languages are
    classified NP-hard on a soft self-loop; otherwise the sign-built pair is
    verified and the verdict reports a conjectured-tractable status, since
    tractability of that case is an open problem.
    """
    build = build_graph(lang, config.pool)
    graph, pool = build.graph, build.pool
    stats = {
        "pool_views": len(pool.views),
        "pool_truncated": pool.truncated,
        "edges": len(graph.edges),
        "soft_edges": graph.soft_count(),
        "m_size": len(graph.M),
    }
    if lang.is_finite_valued():
        cert, search_stats = search_stp(lang, graph, config.limits)
        stats.update(search_stats)
        if cert is not None:
            order = find_submodular_order(lang, cert, config.limits)
            return Classification(
                verdict=TRACTABLE,
                certificate=cert,
                submodular_order=order,
                graph=graph,
                stats=stats,
                pool=pool,
            )
        witness = find_soft_self_loop(graph)
        reason = "soft-self-loop" if witness is not None else "no-STP"
        return Classification(
            verdict=NP_HARD,
            witness=witness,
            reason=reason,
            graph=graph,
            stats=stats,
            pool=pool,
        )
    witness = find_soft_self_loop(graph)
    if witness is not None:
        return Classification(
            verdict=NP_HARD,
            witness=witness,
            reason="soft-self-loop",
            graph=graph,
            stats=stats,
            pool=pool,
        )
    colored = two_color(graph.M, graph.neighbors_in_m())
    if isinstance(colored, TwoColorConflict):
        stats["two_color_conflict"] = colored.kind
        return Classification(verdict=GENERAL_UNKNOWN, graph=graph, stats=stats, pool=pool)
    pair = build_meet_join(colored, graph.M, graph.m_bar, lang.domain_size)
    hit = verify_multimorphism(pair, lang, mode="full")
    if hit is None:
        cert = StpCertificate(
            pair=pair,
            sign=colored,
            verified_against=tuple(f.name for f in lang.functions),
            mode_used="full",
        )
        return Classification(
            verdict=GENERAL_CONJECTURED_TRACTABLE,
            certificate=cert,
            graph=graph,
            stats=stats,
            pool=pool,
        )
    stats["sign_pair_violation"] = (hit.function_name, hit.x, hit.y)
    return Classification(verdict=GENERAL_UNKNOWN, graph=graph, stats=stats, pool=pool)
