"""Tournament-pair search and the tractable / NP-hard classification.

A conservative commutative operation pair over the domain is encoded by one
sign per unordered label pair: +1 orients the pair so the ascending label is
the meet.  Pair-graph edges force opposite signs on their endpoints, and the
closure's signed union-find already groups the sign variables into
components, each variable with its sign relative to the smallest variable
of its component.  The search candidates are read straight from these
components, one free sign per component, and the general-valued signs are
the first candidate restricted to M.  The verdict itself always rests on
exhaustive enumeration of the surviving sign patterns, each verified
against the full multimorphism inequality.  Absence of an edge is never
trusted.
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

    def commutative_on(self, nodes) -> bool:
        return all(
            self.meet_of(a, b) == self.meet_of(b, a)
            and self.join_of(a, b) == self.join_of(b, a)
            for a, b in nodes
        )


def build_meet_join(sign: SignAssignment, m_nodes, domain_size: int) -> OperationPair:
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


def _check_function(pair: OperationPair, f):
    """First inequality violation of the pair on f, or None."""
    d = f.domain_size
    meet, join = pair.meet, pair.join
    table = f.table
    dom = [(args, v) for args, v in zip(f.tuples(), table) if v is not INF]
    for x, fx in dom:
        for y, fy in dom:
            mi = ji = 0
            for xa, ya in zip(x, y):
                mi = mi * d + meet[xa * d + ya]
                ji = ji * d + join[xa * d + ya]
            lhs = table[mi] + table[ji]
            if lhs > fx + fy:
                return Violation(f.name, x, y, lhs, fx + fy)
    return None


def verify_multimorphism(pair: OperationPair, lang: Language):
    """Check the componentwise inequality for every function and every pair
    of finite-cost argument tuples.

    Returns None when the pair is a multimorphism, else the first violation.
    """
    for f in lang.functions:
        hit = _check_function(pair, f)
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


def _component_signs(graph: PairGraph, domain_size: int, flipped) -> dict:
    """Sign of every pair node: each sign variable takes its sign relative
    to the smallest variable of its component, negated when that component
    is in flipped."""
    sigma = {}
    for a in range(domain_size):
        for b in range(a + 1, domain_size):
            root, sign = graph.sign_of((a, b))
            value = -sign if root in flipped else sign
            sigma[(a, b)] = value
            sigma[(b, a)] = -value
    return sigma


def signs_on_m(graph: PairGraph) -> SignAssignment:
    """The search's first candidate restricted to M, the nodes outside the
    contradicted components."""
    m_set = set(graph.M)
    sigma = _component_signs(graph, graph.domain_size, ())
    return SignAssignment(entries=tuple(sorted((p, s) for p, s in sigma.items() if p in m_set)))


def search_stp(lang: Language, graph: PairGraph, limits: SearchLimits = SearchLimits()):
    """Complete search over conservative commutative pairs, graph-pruned.

    Returns (certificate | None, stats).  The candidates are the orientations
    of the closure's components, ordered by their smallest variable: bit k
    of the mask flips component k.  Soundness: every graph edge is a true
    member of the edge set, so the sign constraints it induces hold for
    every tournament-pair multimorphism; pruning never removes a verifiable
    candidate.
    """
    d = lang.domain_size
    if d > limits.stp_domain_limit:
        raise BudgetExceeded(
            f"tournament search limited to domain size {limits.stp_domain_limit}, got {d}"
        )
    stats = {"candidates": 0, "cache_hits": 0, "components": 0, "contradiction": False}
    if graph.contradicted:
        # a contradicted component has self-loops, which no orientation meets
        stats["contradiction"] = True
        return None, stats
    roots = sorted({graph.sign_of((a, b))[0] for a in range(d) for b in range(a + 1, d)})
    stats["components"] = len(roots)
    if 1 << len(roots) > limits.stp_candidate_budget:
        raise BudgetExceeded(
            f"{len(roots)} free sign components exceed the candidate budget"
        )
    violation_cache: list = []  # (function, x, y) triples seen to fail before
    nodes = all_pair_nodes(d)
    for mask in range(1 << len(roots)):
        flipped = {r for k, r in enumerate(roots) if (mask >> k) & 1}
        sigma = _component_signs(graph, d, flipped)
        sign = SignAssignment(entries=tuple(sorted(sigma.items())))
        pair = build_meet_join(sign, nodes, d)
        stats["candidates"] += 1
        if _violates_cached(pair, violation_cache):
            stats["cache_hits"] += 1
            continue
        hit = verify_multimorphism(pair, lang)
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
        if verify_multimorphism(min_max_pair(order), lang) is None:
            return order
    if d > limits.order_domain_limit:
        return None
    for perm in itertools.permutations(range(d)):
        if verify_multimorphism(min_max_pair(perm), lang) is None:
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
        "edges": graph.edge_count(),
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
    sign = signs_on_m(graph)
    pair = build_meet_join(sign, graph.M, lang.domain_size)
    hit = verify_multimorphism(pair, lang)
    if hit is None:
        cert = StpCertificate(
            pair=pair,
            sign=sign,
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
