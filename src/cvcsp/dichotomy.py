"""Tournament-pair search and the tractable / NP-hard classification.

A conservative commutative operation pair over the domain is one tournament
on the labels: for each unordered label pair, which label is the meet.  The
certificate of a tractable verdict is that pair itself, built by `sign_pair`
from the component signs.  Sign +1 on a label pair orients it so the smaller
label is the meet.  Pair-graph edges force opposite signs on their
endpoints, and the closure's signed union-find already groups the sign
variables into components, each variable with its sign relative to the
smallest variable of its component.  The search candidates are read straight
from these components, one free sign per component, and the general-valued
pair is the first candidate with projections on the label pairs of
contradicted components.  The verdict itself always rests on a complete
search over the sign patterns: each candidate is checked against the full
multimorphism inequality, each violation becomes a nogood over the
components it touches, and the next candidate is the smallest pattern that
agrees with no nogood, so only patterns known to fail are skipped.  Absence
of an edge is never trusted.  The same run refuses a verified pair whose
tournament has a cyclic triangle, so the certificate it returns is, when
one exists, a transitive pair: plain min/max under its labels by wins.
"""

from __future__ import annotations

import itertools

from .model import INF, BudgetExceeded, Language, Record, _set
from .express import PoolBudget
from .pairgraph import PairGraph, build_graph, find_soft_self_loop

TRACTABLE = "TRACTABLE"
NP_HARD = "NP_HARD"
GENERAL_CONJECTURED_TRACTABLE = "GENERAL_CONJECTURED_TRACTABLE"
GENERAL_UNKNOWN = "GENERAL_UNKNOWN"


class OperationPair(Record):
    """Meet/join tables over D x D, flattened row-major."""

    __slots__ = ("domain_size", "meet", "join")

    def __init__(self, domain_size: int, meet: tuple, join: tuple):
        _set(self, "domain_size", domain_size)
        _set(self, "meet", meet)
        _set(self, "join", join)

    def meet_of(self, a: int, b: int) -> int:
        return self.meet[a * self.domain_size + b]


class Violation(Record):
    __slots__ = ("function_name", "x", "y", "lhs", "rhs")

    def __init__(self, function_name: str, x: tuple, y: tuple, lhs, rhs):
        _set(self, "function_name", function_name)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


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


# the sign search verifies at most this many candidates
STP_CANDIDATE_BUDGET = 1 << 20


def sign_pair(graph: PairGraph, flipped: int = 0, bit=None) -> OperationPair:
    """The conservative pair orienting each label pair by its variable's sign,
    negated when bit[component] is set in flipped, or projecting it in a
    contradicted component; the join is the label the meet is not."""
    d = graph.domain_size
    meet = [a for a in range(d) for _ in range(d)]  # the projection
    for a in range(d):
        for b in range(a + 1, d):
            root, sign = graph.sign_of((a, b))
            if root not in graph.closure.contradicted:
                if flipped and flipped & bit[root]:
                    sign = -sign
                meet[a * d + b] = meet[b * d + a] = a if sign == 1 else b
    join = tuple(i // d + i % d - lo for i, lo in enumerate(meet))
    return OperationPair(domain_size=d, meet=tuple(meet), join=join)


def _first_allowed(nogoods, k: int):
    """The smallest mask below 2^k that agrees with no nogood, or None.

    Bits are fixed from the highest down, 0 before 1, so the first full
    assignment reached is the smallest.  After each fix, a nogood that
    agrees on its fixed bits and has one free bit forces that bit the other
    way.  When both values of a bit fail under a prefix that every nogood it
    touches disagrees with, the nogoods left are a subset of the originals
    over the free bits, so no mask is allowed at all.  Nogoods of at most
    two bits leave every conflict-free prefix such a prefix, so they never
    backtrack.
    """
    full = (1 << k) - 1
    untried = [(0, 0)]  # (fixed bits, their values) of the prefixes left to try
    while untried:
        fixed, value = untried.pop()
        forced, conflict = True, False
        while forced and not conflict:
            forced, clean = False, True
            for bits, values in nogoods:
                if (value ^ values) & bits & fixed:
                    continue  # disagrees on a fixed bit
                free = bits & ~fixed
                conflict = conflict or not free
                if free & (free - 1):
                    clean = clean and not bits & fixed
                elif free:
                    fixed |= free
                    value |= free & ~values
                    forced = True
        if conflict:
            continue
        if clean:
            untried.clear()  # a failure below this prefix fails every prefix
        if fixed == full:
            return value
        bit = 1 << ((full & ~fixed).bit_length() - 1)
        untried += [(fixed | bit, value | bit), (fixed | bit, value)]
    return None


def _cyclic_triangle(pair: OperationPair):
    """The label pairs (a, b), (b, c), (a, c) of the first labels a < b < c
    whose meets go round, or None when the tournament is transitive."""
    for a, b, c in itertools.combinations(range(pair.domain_size), 3):
        if (pair.meet_of(a, b) == a) == (pair.meet_of(b, c) == b) != (pair.meet_of(a, c) == a):
            return (a, b), (b, c), (a, c)
    return None


def search_stp(lang: Language, graph: PairGraph):
    """Complete search over conservative commutative pairs, graph-pruned.

    Returns (the first verified pair with no cyclic triangle, else the first
    verified pair, else None; stats).  Bit k of a mask flips the closure's
    k-th component (ordered by smallest variable), and each candidate is the
    smallest mask that agrees with no nogood.  A violation at (f, x, y)
    depends only on the components of the pairs {x_i, y_i} with x_i != y_i,
    so it is kept as a nogood: those bits and their values.  A verified pair
    with a cyclic triangle is refused the same way, by the components of the
    triangle's three label pairs: every mask that agrees on them is cyclic
    too.  Graph edges are true members of the edge set and nogoods rule out
    only failing or cyclic masks, so the first transitive mask that verifies
    is found, as in a plain enumeration; every min/max pair is such a mask.
    STP_CANDIDATE_BUDGET bounds the candidates verified: running out returns
    the cyclic pair kept, or raises BudgetExceeded when none verified.  Each
    candidate adds a new nogood, so a binary language, whose violations touch
    at most two bits, verifies at most 2K^2 + 2 C(d, 3) + 1 over K
    components: each label triple has two cyclic orientations.
    """
    d = lang.domain_size
    stats = {"candidates": 0, "components": 0, "contradiction": False}
    if graph.closure.contradicted:
        # a contradicted component has self-loops, which no orientation meets
        stats["contradiction"] = True
        return None, stats
    roots = sorted({graph.sign_of((a, b))[0] for a in range(d) for b in range(a + 1, d)})
    stats["components"] = len(roots)
    root_bit = {root: 1 << k for k, root in enumerate(roots)}
    nogoods = set()  # (bits, values): every mask that agrees on those bits fails
    cyclic = None  # the first verified pair with a cyclic triangle
    while (mask := _first_allowed(nogoods, len(roots))) is not None:
        if stats["candidates"] == STP_CANDIDATE_BUDGET:
            if cyclic is not None:
                break
            raise BudgetExceeded(
                f"sign search verified {stats['candidates']} candidates without a "
                f"verdict, the STP_CANDIDATE_BUDGET of {STP_CANDIDATE_BUDGET}"
            )
        stats["candidates"] += 1
        pair = sign_pair(graph, mask, root_bit)
        hit = verify_multimorphism(pair, lang)
        if hit is not None:
            pairs = zip(hit.x, hit.y)
        else:
            pairs = _cyclic_triangle(pair)
            if pairs is None:
                return pair, stats
            cyclic = cyclic or pair
        bits = 0
        for xa, ya in pairs:
            if xa != ya:
                bits |= root_bit[graph.sign_of((min(xa, ya), max(xa, ya)))[0]]
        if not bits:  # a triangle's labels differ, so only a violation gets here
            raise RuntimeError(f"violation of {hit.function_name} at x = y = {hit.x}")
        nogoods.add((bits, mask & bits))
    return cyclic, stats


def find_submodular_order(pair: OperationPair):
    """The pair's labels by wins, the total order under which plain min/max
    is the pair, or None when its tournament has a cyclic triangle."""
    if _cyclic_triangle(pair) is not None:
        return None
    d = pair.domain_size
    wins = [sum(1 for b in range(d) if b != a and pair.meet_of(a, b) == a) for a in range(d)]
    return tuple(sorted(range(d), key=lambda a: -wins[a]))


class Classification(Record):
    """A verdict; its certificate is the verified pair.  stats defaults to a
    new dict."""

    __slots__ = ("verdict", "certificate", "witness", "reason", "submodular_order", "graph", "stats")

    def __init__(
        self,
        verdict: str,
        certificate: OperationPair = None,
        witness=None,
        reason: str = "",
        submodular_order: tuple = None,
        graph: PairGraph = None,
        stats: dict = None,
    ):
        _set(self, "verdict", verdict)
        _set(self, "certificate", certificate)
        _set(self, "witness", witness)
        _set(self, "reason", reason)
        _set(self, "submodular_order", submodular_order)
        _set(self, "graph", graph)
        _set(self, "stats", {} if stats is None else stats)


def classify(lang: Language, budget: PoolBudget = PoolBudget()) -> Classification:
    """Full pipeline: pool, graph, then verdict.

    Finite-valued languages get the complete tournament search (sound and
    complete regardless of pool coverage).  General-valued languages are
    classified NP-hard on a soft self-loop; otherwise the sign-built pair is
    verified and the verdict reports a conjectured-tractable status, since
    tractability of that case is an open problem.
    """
    graph = build_graph(lang, budget)
    stats = {
        "pool_views": len(graph.pool.views),
        "pool_truncated": graph.truncated,
        "edges": graph.edge_count(),
        "soft_edges": graph.soft_count(),
        "m_size": len(graph.M),
    }
    finite = lang.is_finite_valued()
    if finite:
        pair, search_stats = search_stp(lang, graph)
        stats.update(search_stats)
        if pair is not None:
            return Classification(
                verdict=TRACTABLE,
                certificate=pair,
                submodular_order=find_submodular_order(pair),
                graph=graph,
                stats=stats,
            )
    witness = find_soft_self_loop(graph)
    if witness is not None or finite:
        return Classification(
            verdict=NP_HARD,
            witness=witness,
            reason="soft-self-loop" if witness is not None else "no-STP",
            graph=graph,
            stats=stats,
        )
    pair = sign_pair(graph)
    hit = verify_multimorphism(pair, lang)
    if hit is None:
        return Classification(GENERAL_CONJECTURED_TRACTABLE, pair, graph=graph, stats=stats)
    stats["sign_pair_violation"] = (hit.function_name, hit.x, hit.y)
    return Classification(verdict=GENERAL_UNKNOWN, graph=graph, stats=stats)
