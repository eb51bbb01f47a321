"""Tournament-pair search and the tractable / NP-hard classification.

A conservative commutative operation pair over the domain is encoded by one
sign per unordered label pair: +1 orients the pair so the ascending label is
the meet.  Pair-graph edges force opposite signs on their endpoints, and the
closure's signed union-find already groups the sign variables into
components, each variable with its sign relative to the smallest variable
of its component.  The search candidates are read straight from these
components, one free sign per component, and the general-valued signs are
the first candidate restricted to M.  The verdict itself always rests on a
complete walk over the surviving sign patterns: each pattern it verifies is
checked against the full multimorphism inequality, and each violation
becomes a nogood that, alone or resolved with others, skips only patterns
known to fail.  Absence of an edge is never trusted.
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


def _certificate(pair: OperationPair, sign: SignAssignment, lang: Language) -> StpCertificate:
    """The certificate of a pair that verified against every function of lang."""
    return StpCertificate(pair, sign, tuple(f.name for f in lang.functions), "full")


@dataclass(frozen=True)
class SearchLimits:
    stp_domain_limit: int = 8
    stp_candidate_budget: int = 1 << 20


# the permutation loop of find_submodular_order tries at most 8! orders
ORDER_DOMAIN_LIMIT = 8


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

    Returns (certificate | None, stats).  Bit k of a mask flips the closure's
    k-th component (ordered by smallest variable); masks go in increasing
    order.  A violation at (f, x, y) depends only on the components of the
    pairs {x_i, y_i} with x_i != y_i, so it is kept as a nogood, and the
    masks that agree with it are skipped up to the next change of its lowest
    bit.  When both values of that bit are ruled out, the two nogoods resolve
    into one over the bits above it.  Graph edges are true members of the
    edge set and nogoods rule out only failing masks, so the first mask that
    verifies is found.  `stp_candidate_budget` bounds the candidates verified.
    """
    d = lang.domain_size
    if d > limits.stp_domain_limit:
        raise BudgetExceeded(
            f"tournament search limited to domain size {limits.stp_domain_limit}, got {d} "
            "(raise it with --stp-domain-limit or CVCSP_STP_DOMAIN_LIMIT)"
        )
    stats = {"candidates": 0, "components": 0, "contradiction": False}
    if graph.contradicted:
        # a contradicted component has self-loops, which no orientation meets
        stats["contradiction"] = True
        return None, stats
    variables = [(a, b) for a in range(d) for b in range(a + 1, d)]
    roots = sorted({graph.sign_of(v)[0] for v in variables})
    stats["components"] = len(roots)
    variable_bit = {v: 1 << roots.index(graph.sign_of(v)[0]) for v in variables}
    nodes = all_pair_nodes(d)
    nogoods = []  # (bits, values): every mask that agrees on those bits fails
    refuted = {}  # bit -> the other bits of the nogood that ruled out its 0
    mask = 0
    while mask < 1 << len(roots):
        bits = next((b for b, v in nogoods if mask & b == v), 0)
        if not bits:
            if stats["candidates"] == limits.stp_candidate_budget:
                raise BudgetExceeded(
                    f"sign search verified {stats['candidates']} candidates without a "
                    f"verdict, the stp_candidate_budget of {limits.stp_candidate_budget}"
                )
            stats["candidates"] += 1
            sigma = _component_signs(graph, d, {r for k, r in enumerate(roots) if mask >> k & 1})
            sign = SignAssignment(entries=tuple(sorted(sigma.items())))
            pair = build_meet_join(sign, nodes, d)
            hit = verify_multimorphism(pair, lang)
            if hit is None:
                return _certificate(pair, sign, lang), stats
            for xa, ya in zip(hit.x, hit.y):
                if xa != ya:
                    bits |= variable_bit[(min(xa, ya), max(xa, ya))]
            if not bits:
                raise RuntimeError(f"violation of {hit.function_name} at x = y = {hit.x}")
            nogoods.append((bits, mask & bits))
        low = bits & -bits
        while mask & low:
            # both values of the lowest bit fail under the bits above it, so
            # the two nogoods resolve into one over those bits alone
            bits = refuted[low] | (bits ^ low)
            if not bits:
                return None, stats
            nogoods.append((bits, mask & bits))
            low = bits & -bits
        refuted[low] = bits ^ low
        mask = (mask | (low - 1)) + 1  # bit low turns 1, the bits below it 0
    return None, stats


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


def find_submodular_order(lang: Language, cert: StpCertificate):
    """A total order under which plain min/max verifies, or None.

    When the certificate's tournament is transitive, the order by wins
    induces the certificate's own pair, which is already verified; otherwise
    all orders are tried in lexicographic sequence.
    """
    d = lang.domain_size
    pair = cert.pair
    wins = [sum(1 for b in range(d) if b != a and pair.meet_of(a, b) == a) for a in range(d)]
    order = tuple(sorted(range(d), key=lambda a: -wins[a]))
    if min_max_pair(order) == pair:
        return order
    if d > ORDER_DOMAIN_LIMIT:
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
    finite = lang.is_finite_valued()
    if finite:
        cert, search_stats = search_stp(lang, graph, config.limits)
        stats.update(search_stats)
        if cert is not None:
            order = find_submodular_order(lang, cert)
            return Classification(
                verdict=TRACTABLE,
                certificate=cert,
                submodular_order=order,
                graph=graph,
                stats=stats,
                pool=pool,
            )
    witness = find_soft_self_loop(graph)
    if witness is not None or finite:
        return Classification(
            verdict=NP_HARD,
            witness=witness,
            reason="soft-self-loop" if witness is not None else "no-STP",
            graph=graph,
            stats=stats,
            pool=pool,
        )
    sign = signs_on_m(graph)
    pair = build_meet_join(sign, graph.M, lang.domain_size)
    hit = verify_multimorphism(pair, lang)
    if hit is None:
        return Classification(
            verdict=GENERAL_CONJECTURED_TRACTABLE,
            certificate=_certificate(pair, sign, lang),
            graph=graph,
            stats=stats,
            pool=pool,
        )
    stats["sign_pair_violation"] = (hit.function_name, hit.x, hit.y)
    return Classification(verdict=GENERAL_UNKNOWN, graph=graph, stats=stats, pool=pool)
