"""Instance solving: min-cut for ordered labels, then exact bucket elimination,
then exact enumeration.

The min-cut path applies when every term has arity at most 2 and every
binary table is submodular under a given total order on the labels.  Labels
are re-expressed through per-variable threshold indicators (Ishikawa's
encoding); second differences of each binary table (non-positive by
submodularity) become arc capacities, infinite arcs keep the indicators
monotone, and constant terms go into the offset.  The max-flow is Dinic's
algorithm over the network's flat arc arrays, in exact rational arithmetic;
inside it an infinite arc has the finite capacity 1 + the sum of the finite
capacities, which changes no minimum cut.  Only nodes some term touches get
threshold indicators; an untouched node takes the order's first label.

Every other instance is solved exactly by bucket elimination (Dechter,
*Bucket elimination: a unifying framework for reasoning*, AIJ 1999): nodes
are eliminated from the highest index down, each bucket's message is the
minimum of its tables' sum over the bucket's node, and the forward decode
gives each node the smallest label that reaches its bucket's minimum.  That
is the lexicographically smallest optimum, the one enumeration returns, so
the three routes agree on cost and the last two on the assignment too.  When
the elimination's table entries exceed the budget, enumeration is tried
under the same budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .model import (
    INF,
    BudgetExceeded,
    InputError,
    VcspInstance,
    evaluate,
)
from . import dichotomy

DEFAULT_BRUTE_BUDGET = 1 << 24


class IntractableAtScale(RuntimeError):
    """No polynomial route applies and the instance exceeds the exact budget."""


@dataclass(frozen=True)
class SolveResult:
    assignment: tuple
    cost: object
    method: str  # "min_cut" | "elimination" | "brute_force"
    stats: dict = field(default_factory=dict)


def brute_force(instance: VcspInstance, budget: int = DEFAULT_BRUTE_BUDGET) -> SolveResult:
    """Global minimum by enumeration; ties go to the lexicographically
    smallest assignment."""
    n = instance.node_count
    if n == 0 and not instance.terms:
        return SolveResult((), 0, "brute_force", {"evaluations": 1})
    d = instance.domain_size()
    total = d ** n
    if total > budget:
        raise BudgetExceeded(
            f"{total} assignments exceed the exact-enumeration budget {budget}"
        )
    plans = [(f.table, scope) for f, scope in instance.terms]
    best_cost = INF
    best = None
    for assignment in itertools.product(range(d), repeat=n):
        cost = 0
        for table, scope in plans:
            idx = 0
            for s in scope:
                idx = idx * d + assignment[s]
            v = table[idx]
            if v is INF:
                cost = INF
                break
            cost = cost + v
        if best is None or cost < best_cost:
            best_cost = cost
            best = assignment
    stats = {"evaluations": total}
    if best_cost is INF:
        stats["infeasible"] = True
    return SolveResult(best, best_cost, "brute_force", stats)


def eliminate(instance: VcspInstance, budget: int = DEFAULT_BRUTE_BUDGET) -> SolveResult:
    """Global minimum by bucket elimination in reverse index order, with
    enumeration's result: the lexicographically smallest optimum, and the
    all-zero assignment when every assignment costs INF.

    Each term goes into the bucket of its highest node; a bucket's table
    spans the bucket's node and its message scope, the other nodes of its
    terms and messages.  The table entries of all buckets are counted
    before any table is built, and above the budget the instance goes to
    `brute_force` under the same budget; when its assignments exceed the
    budget too, the error names both counts.  Tables are flat, row-major over
    their scope in increasing node order.
    """
    n = instance.node_count
    if n == 0 and not instance.terms:
        return SolveResult((), 0, "elimination", {"width": 0, "table_entries": 0})
    d = instance.domain_size()
    offset = 0
    buckets = {}  # node -> [(scope, table)]; a term's scope may repeat a node
    for f, scope in instance.terms:
        if scope:
            buckets.setdefault(max(scope), []).append((scope, f.table))
        else:
            offset = offset + f.table[0]
    nodes = {v: set().union(*(scope for scope, _ in fs)) for v, fs in buckets.items()}
    entries = width = 0
    for v in range(n - 1, -1, -1):
        if v not in nodes:
            continue
        entries += d ** len(nodes[v])
        rest = nodes[v] - {v}
        width = max(width, len(rest))
        if rest:
            nodes.setdefault(max(rest), set()).update(rest)
    if entries > budget:
        if d ** n > budget:
            raise BudgetExceeded(
                f"elimination needs {entries} table entries and enumeration {d ** n} "
                f"assignments, both over the exact-enumeration budget {budget}"
            )
        return brute_force(instance, budget)

    for v in range(n - 1, -1, -1):
        if v not in nodes:
            continue
        scope = sorted(nodes[v])  # v is last, so it varies fastest
        position = {u: i for i, u in enumerate(scope)}
        total = None
        for term_scope, table in buckets[v]:
            strides = [0] * len(scope)
            step = 1
            for u in reversed(term_scope):
                strides[position[u]] += step
                step *= d
            index = [0]
            for stride in strides:
                index = [i + x * stride for i in index for x in range(d)]
            if total is None:
                total = [table[i] for i in index]
            else:
                total = [c + table[i] for c, i in zip(total, index)]
        message = [min(total[i : i + d]) for i in range(0, len(total), d)]
        if len(scope) > 1:
            buckets.setdefault(scope[-2], []).append((tuple(scope[:-1]), message))
        else:
            offset = offset + message[0]

    assignment = [0] * n
    if offset is not INF:
        for v in sorted(buckets):
            values = []
            for label in range(d):
                assignment[v] = label
                value = 0
                for scope, table in buckets[v]:
                    i = 0
                    for u in scope:
                        i = i * d + assignment[u]
                    value = value + table[i]
                values.append(value)
            assignment[v] = values.index(min(values))  # the smallest label reaching the minimum
    assignment = tuple(assignment)
    cost = evaluate(instance, assignment)
    if cost != offset:
        raise RuntimeError(f"decoded cost {cost} != eliminated cost {offset}")
    stats = {"width": width, "table_entries": entries}
    if cost is INF:
        stats["infeasible"] = True
    return SolveResult(assignment, cost, "elimination", stats)


class FlowNetwork:
    """Directed network with exact rational capacities; INF arcs allowed.

    Arcs are stored in forward/backward pairs (the backward arc has zero
    capacity), so arc index i and i^1 are residual partners.
    """

    def __init__(self, node_count: int):
        self.node_count = node_count
        self.tails: list = []
        self.heads: list = []
        self.caps: list = []
        self.adjacency: list = [[] for _ in range(node_count)]

    def add_arc(self, tail: int, head: int, capacity) -> int:
        if capacity is not INF and capacity < 0:
            raise InputError("arc capacities must be non-negative")
        i = len(self.caps)
        self.tails.extend((tail, head))
        self.heads.extend((head, tail))
        self.caps.extend((capacity, 0))
        self.adjacency[tail].append(i)
        self.adjacency[head].append(i + 1)
        return i


def max_flow(network: FlowNetwork, source: int, sink: int):
    """Exact max flow by Dinic's algorithm, deterministic arc order.

    Each phase builds the breadth-first level graph of the residual network
    and saturates it with a blocking flow: a depth-first walk that keeps one
    arc pointer per node, augments along the first source-sink path it
    finds and retreats to the tail of the first arc that path saturated.
    Inside the flow an INF arc has the exact capacity M = 1 + the sum of the
    finite capacities.  A cut through such an arc then costs at least M,
    more than every cut of finite arcs, so the minimum cuts are those of
    the network as given, and a flow value of M or more means a path of INF
    arcs.

    Returns (value, source_side, cut_value); source_side is the set of nodes
    residual-reachable from the source, the minimal minimum cut whichever
    maximum flow was found, and cut_value always equals the flow value
    (checked).  A path of INF arcs yields (INF, None, INF).
    """
    caps = network.caps
    heads = network.heads
    adjacency = network.adjacency
    node_count = network.node_count
    big = 1
    for c in caps:
        if c is not INF:
            big = big + c
    residual = [big if c is INF else c for c in caps]

    value = 0
    while True:
        level = [-1] * node_count
        level[source] = 0
        queue = [source]
        for u in queue:
            next_level = level[u] + 1
            for i in adjacency[u]:
                v = heads[i]
                if level[v] < 0 and residual[i] > 0:
                    level[v] = next_level
                    queue.append(v)
        if level[sink] < 0:
            break  # the levels mark the residual-reachable nodes
        pointer = [0] * node_count  # arcs before it lead nowhere this phase
        path = []
        u = source
        while True:
            if u == sink:
                pushed = residual[path[0]]
                for i in path:
                    r = residual[i]
                    if r < pushed:
                        pushed = r
                for i in path:
                    residual[i] -= pushed
                    residual[i ^ 1] += pushed
                value = value + pushed
                for k, i in enumerate(path):  # retreat to the first saturated arc
                    if residual[i] == 0:
                        del path[k:]
                        break
                u = heads[path[-1]] if path else source
                continue
            arcs = adjacency[u]
            p = pointer[u]
            want = level[u] + 1
            while p < len(arcs):
                i = arcs[p]
                if level[heads[i]] == want and residual[i] > 0:
                    break
                p += 1
            pointer[u] = p
            if p < len(arcs):
                path.append(arcs[p])
                u = heads[arcs[p]]
            elif path:
                u = heads[path.pop() ^ 1]
                pointer[u] += 1
            else:
                break
        if value >= big:
            return INF, None, INF

    reach = frozenset(v for v in range(node_count) if level[v] >= 0)
    cut_value = 0
    for i in range(0, len(caps), 2):
        if network.tails[i] in reach and heads[i] not in reach:
            cut_value = cut_value + caps[i]
    if cut_value != value:
        raise RuntimeError("max-flow / min-cut duality violated")
    return value, reach, cut_value


def solve_mincut(instance: VcspInstance, order: tuple) -> SolveResult:
    """Exact optimum through the threshold-indicator cut encoding.

    Requires finite terms of arity at most 2, all binary tables submodular
    under the order; each table is checked once, however many terms use it.
    The decoded assignment is the canonical minimum cut
    (pointwise lowest in the order among optima); its cost is re-evaluated
    and always equals offset + flow.  Only the nodes some term touches get
    rows and threshold indicators; the others take the order's first label.
    """
    n = instance.node_count
    terms = instance.terms
    if n == 0 and not terms:
        return SolveResult((), 0, "min_cut", {})
    if not terms:
        raise InputError("instance has no terms; nothing to encode")
    d = terms[0][0].domain_size
    if sorted(order) != list(range(d)):
        raise InputError(f"order {order} is not a permutation of 0..{d - 1}")
    min_max = dichotomy.min_max_pair(order)
    touched = sorted({v for _, scope in terms for v in scope})
    row = {v: r for r, v in enumerate(touched)}  # node -> its row and indicators
    unary = [[0] * d for _ in touched]  # rank space
    constant = 0
    binary_terms = []
    finite = set()  # each table is checked once, however many terms use it
    submodular = set()
    for f, scope in terms:
        if f.arity > 2:
            raise InputError(f"{f.name}: min-cut route handles arity <= 2 only")
        if f not in finite:
            if not f.is_finite_valued():
                raise InputError(f"{f.name}: min-cut route requires finite tables")
            finite.add(f)
        if f.arity == 0:
            constant += f.table[0]
        elif f.arity == 1:
            for r in range(d):
                unary[row[scope[0]]][r] += f.table[order[r]]
        elif scope[0] == scope[1]:
            for r in range(d):
                unary[row[scope[0]]][r] += f.table[order[r] * d + order[r]]
        else:
            if f not in submodular:
                bad = dichotomy._check_function(min_max, f)
                if bad is not None:
                    raise InputError(
                        f"{f.name} on scope {scope} is not submodular under {order}: "
                        f"violating pair {(bad.x, bad.y)}"
                    )
                submodular.add(f)
            binary_terms.append((f, (row[scope[0]], row[scope[1]])))

    k = d - 1  # thresholds per variable
    net = FlowNetwork(2 + len(touched) * k)
    source, sink = 0, 1

    def node_id(v, t):  # v a row, t in 1..k
        return 2 + v * k + (t - 1)

    offset = constant
    linear = [[0] * (k + 1) for _ in touched]  # index by threshold 1..k
    for v in range(len(touched)):
        offset += unary[v][0]
        for t in range(1, d):
            linear[v][t] += unary[v][t] - unary[v][t - 1]
    for f, (u, v) in binary_terms:
        t_ = f.table
        B = [[t_[order[s] * d + order[t]] for t in range(d)] for s in range(d)]
        offset += B[0][0]
        for s in range(1, d):
            linear[u][s] += B[s][0] - B[s - 1][0]
        for t in range(1, d):
            linear[v][t] += B[0][t] - B[0][t - 1]
        for s in range(1, d):
            for t in range(1, d):
                dd = B[s][t] - B[s - 1][t] - B[s][t - 1] + B[s - 1][t - 1]
                if dd > 0:  # cannot happen after the submodularity check
                    raise InputError(f"{f.name}: non-submodular second difference")
                if dd != 0:
                    linear[u][s] += dd
                    net.add_arc(node_id(u, s), node_id(v, t), -dd)
    for v in range(len(touched)):
        for t in range(1, d):
            a = linear[v][t]
            if a > 0:
                net.add_arc(node_id(v, t), sink, a)
            elif a < 0:
                offset += a
                net.add_arc(source, node_id(v, t), -a)
        for t in range(1, d - 1):
            net.add_arc(node_id(v, t + 1), node_id(v, t), INF)

    value, source_side, cut_value = max_flow(net, source, sink)
    if value is INF:
        raise RuntimeError("finite-table encoding cannot have an infinite cut")
    assignment = [order[0]] * n
    for v, node in enumerate(touched):
        indicators = [1 if node_id(v, t) in source_side else 0 for t in range(1, d)]
        if indicators != sorted(indicators, reverse=True):
            raise RuntimeError("threshold indicators must form a staircase")
        assignment[node] = order[sum(indicators)]
    assignment = tuple(assignment)
    cost = offset + value
    check = evaluate(instance, assignment)
    if check != cost:
        raise RuntimeError(f"decoded cost {check} != offset+flow {cost}")
    return SolveResult(
        assignment,
        cost,
        "min_cut",
        {"flow": value, "cut": cut_value, "offset": offset},
    )


def solve(
    instance: VcspInstance,
    classification: "dichotomy.Classification",
    budget: int = DEFAULT_BRUTE_BUDGET,
) -> SolveResult:
    """Dispatch: min-cut when the language is tractable with a known order
    and the instance is pairwise; exact elimination, or enumeration when
    elimination's tables exceed the budget, otherwise."""
    order = classification.submodular_order
    pairwise = all(f.arity <= 2 for f, _ in instance.terms)
    finite = all(f.is_finite_valued() for f, _ in instance.terms)
    if (
        classification.verdict == dichotomy.TRACTABLE
        and order is not None
        and pairwise
        and finite
        and instance.node_count > 0
        and instance.terms
    ):
        return solve_mincut(instance, order)
    try:
        return eliminate(instance, budget)
    except BudgetExceeded as exc:
        raise IntractableAtScale(
            f"no polynomial route for a {classification.verdict} language "
            f"instance of this size: {exc} (raise it with --brute-budget or CVCSP_BRUTE_BUDGET)"
        ) from exc
