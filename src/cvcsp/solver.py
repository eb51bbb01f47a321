"""Instance solving: min-cut for ordered labels, else exact bucket elimination.

The min-cut path applies when every term has arity at most 2 and every
binary table is submodular under a given total order on the labels.  Labels
are re-expressed through per-variable threshold indicators (Ishikawa's
encoding); second differences of each binary table become arc capacities,
infinite arcs keep the indicators monotone, and constant terms go into the
offset.  Each distinct binary table is turned into its arcs and linear terms
once, its cut template, which each of its terms copies; a positive second
difference in the template is the submodularity check.  `solve_mincut`
makes these per-table decisions itself and returns None when one fails, so
`solve` then eliminates.  The max-flow is Boykov and Kolmogorov's search-tree
algorithm over the network's flat arc arrays, in exact rational arithmetic,
after a greedy pre-flow that saturates the paths source -> u -> sink and
source -> u -> v -> sink through inner nodes; inside it an infinite arc has
the finite capacity 1 + the sum of the finite capacities, which changes no
minimum cut.  Only nodes some term touches get threshold indicators; an
untouched node takes the order's first label.

Every other instance is solved exactly by bucket elimination (Dechter,
*Bucket elimination: a unifying framework for reasoning*, AIJ 1999): nodes
are eliminated from the highest index down, each bucket's message is the
minimum of its tables' sum over the bucket's node, and the forward decode
gives each node the smallest label that reaches its bucket's minimum.  That
is the lexicographically smallest optimum, the one enumeration
(`brute_force`) returns, so the two routes agree on cost, and elimination
and enumeration on the assignment too.  Each term's table is brought once
to its sorted scope, then broadcast over the bucket's scope by repetition.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque

from .model import (
    DEFAULT_BRUTE_BUDGET,
    INF,
    BudgetExceeded,
    InputError,
    Record,
    VcspInstance,
    _set,
    evaluate,
)
from . import dichotomy


class SolveResult(Record):
    """An optimum found by method "min_cut", "elimination" or "brute_force";
    stats defaults to a new dict."""

    __slots__ = ("assignment", "cost", "method", "stats")

    def __init__(self, assignment: tuple, cost, method: str, stats: dict = None):
        _set(self, "assignment", assignment)
        _set(self, "cost", cost)
        _set(self, "method", method)
        _set(self, "stats", {} if stats is None else stats)


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


def _sorted_table(scope: tuple, table, d: int):
    """(sorted scope without repeats, the table re-indexed over it): a term
    whose scope decreases or repeats a node, brought once to the layout of
    the bucket tables."""
    nodes = sorted(set(scope))
    position = {u: i for i, u in enumerate(nodes)}
    strides = [0] * len(nodes)
    step = 1
    for u in reversed(scope):
        strides[position[u]] += step
        step *= d
    index = [0]
    for stride in strides:
        index = [i + x * stride for i in index for x in range(d)]
    return tuple(nodes), [table[i] for i in index]


def _broadcast(table, positions: list, width: int, d: int):
    """The entries of a table over `width` nodes, row-major, from `table`
    over the increasing `positions` among them, the nodes it does not
    depend on filled in by repetition.  Built right to left: the nodes
    absent between two of the table's nodes repeat each block to their
    right, and the absent leading nodes repeat the whole.  The last step
    is returned as an iterator, so a caller that adds it into its table
    never holds the expansion as a list."""
    out, block, right = table, 1, width
    for p in reversed([-1] + positions):  # -1 closes the absent leading nodes
        reps = d ** (right - p - 1)
        if reps > 1:
            if out is not table:  # the previous step's iterator
                out = list(out)
            if block == 1:
                runs = map(itertools.repeat, out, itertools.repeat(reps))
            elif block == len(out):  # the leading nodes
                runs = itertools.repeat(out, reps)
            else:
                blocks = [out[i : i + block] for i in range(0, len(out), block)]
                runs = map(operator.mul, blocks, itertools.repeat(reps))
            out = itertools.chain.from_iterable(runs)
        block *= reps * d
        right = p
    return out


def eliminate(instance: VcspInstance, budget: int = DEFAULT_BRUTE_BUDGET) -> SolveResult:
    """Global minimum by bucket elimination in reverse index order, with
    enumeration's result: the lexicographically smallest optimum, and the
    all-zero assignment when every assignment costs INF.

    Each term goes into the bucket of its highest node; a bucket's table
    spans the bucket's node and its message scope, the other nodes of its
    terms and messages.  The table entries of all buckets are counted
    before any table is built; elimination runs when they, or the d^n
    assignments, fit the budget.  The entries are below d^n * d / (d - 1)
    <= 2 * d^n, so the work stays within twice the budget and no table
    exceeds it.  Tables are flat, row-major over their scope in increasing
    node order.
    """
    n = instance.node_count
    if not instance.terms:  # every assignment costs 0
        return SolveResult((0,) * n, 0, "elimination", {"width": 0, "table_entries": 0})
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
    if entries > budget and d ** n > budget:
        raise BudgetExceeded(
            f"elimination needs {entries} table entries, over the exact-enumeration budget {budget}"
        )

    for v in range(n - 1, -1, -1):
        if v not in nodes:
            continue
        scope = sorted(nodes[v])  # v is last, so it varies fastest
        position = {u: i for i, u in enumerate(scope)}
        total = None
        for term_scope, table in buckets[v]:
            if any(a >= b for a, b in zip(term_scope, term_scope[1:])):
                term_scope, table = _sorted_table(term_scope, table, d)
            expansion = _broadcast(table, [position[u] for u in term_scope], len(scope), d)
            total = list(expansion) if total is None else list(map(operator.add, total, expansion))
        message = list(map(min, *(total[label::d] for label in range(d))))  # over v, the last node
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
    """Directed network with exact non-negative capacities; INF arcs allowed.

    Arcs are stored in forward/backward pairs (the backward arc has zero
    capacity), so arc index i and i^1 are residual partners, and the tail of
    arc i is the head of arc i^1.  adjacency[v] lists the arcs out of v in
    index order, backward arcs included.
    """

    def __init__(self, node_count: int):
        self.heads: list = []
        self.caps: list = []
        self.adjacency: list = [[] for _ in range(node_count)]


def _push(residual: list, path: tuple):
    """Push the path's bottleneck along its arcs; returns the amount."""
    pushed = min(residual[a] for a in path)
    for a in path:
        residual[a] -= pushed
        residual[a ^ 1] += pushed
    return pushed


def _preflow(residual: list, heads: list, adjacency: list, source: int, sink: int):
    """Greedy flow before the search trees grow: saturate the residual paths
    source -> u -> sink, then source -> u -> v -> sink, with u and v inner
    nodes; returns the flow's value.  A path through a terminal is skipped:
    beside a direct source -> sink arc and an arc back, the path
    source -> sink -> source -> sink would use the direct arc twice and push
    its residual capacity below zero."""
    into_sink = {}  # inner node -> its residual arcs into the sink
    for i in adjacency[sink]:
        if residual[i ^ 1] and heads[i] != source and heads[i] != sink:
            into_sink.setdefault(heads[i], []).append(i ^ 1)
    inner = [
        i for i in adjacency[source] if residual[i] and heads[i] != source and heads[i] != sink
    ]
    value = 0
    for i in inner:
        for k in into_sink.get(heads[i], ()):
            if residual[i] and residual[k]:
                value = value + _push(residual, (i, k))
    for i in inner:
        u = heads[i]
        for j in adjacency[u]:
            if not residual[i]:
                break
            v = heads[j]
            if residual[j] and v != u and v in into_sink:
                for k in into_sink[v]:
                    if residual[i] and residual[j] and residual[k]:
                        value = value + _push(residual, (i, j, k))
    return value


def max_flow(network: FlowNetwork, source: int, sink: int):
    """Exact max flow by Boykov and Kolmogorov's search trees (*An
    experimental comparison of min-cut/max-flow algorithms for energy
    minimization in vision*, TPAMI 2004), deterministic arc order.

    A source tree and a sink tree grow over residual arcs and persist across
    augmentations.  After each one, a node whose parent arc it saturated is
    adopted by the nearest same-tree neighbour whose origin is still a root
    (the origin walk stops at nodes stamped in this round), or freed.  An
    INF arc gets the capacity M = 1 + the sum of the finite capacities; a
    cut through it costs more than any cut of finite arcs, so the minimum
    cuts are those of the network as given, and a flow of M or more means a
    path of INF arcs.

    Returns (value, source_side, cut_value); source_side is the set of nodes
    residual-reachable from the source, the minimal minimum cut whichever
    maximum flow was found, and cut_value always equals the flow value
    (checked).  A path of INF arcs yields (INF, None, INF).

    source_side is read off the source tree at termination.  Its tree links
    are residual, so each of its nodes is reachable.  And since no node is
    left active, every residual arc out of the tree ends inside it: a node
    leaves the queue only after a scan of its arcs finds none into a free
    node or the sink tree.  After that scan such an arc appears only when a
    neighbour in the source tree is freed, which activates the node, or
    when a neighbour joins the sink tree, which activates the neighbour,
    whose own scan finds the arc.  An augmentation adds residual only to
    the reverses of its path's arcs, and none of those leaves the source
    tree.  So the source tree is exactly the reachable set.
    """
    if source == sink:
        raise InputError(f"source and sink are the same node {source}")
    caps, heads, adjacency = network.caps, network.heads, network.adjacency
    n = len(adjacency)
    big = 1 + sum(c for c in caps[::2] if c is not INF)  # a backward arc has capacity 0
    residual = [big if c is INF else c for c in caps]

    value = _preflow(residual, heads, adjacency, source, sink)

    # tree: 1 source tree, -1 sink tree, 0 free.  parent: the arc to the
    # parent, ROOT for the roots, NONE for orphans and free nodes.  resume: -1
    # off the active queue, else where the next scan starts in the node's
    # arcs (those passed over lead nowhere new until it is activated again).
    ROOT, NONE = -1, -2
    tree, parent, resume = [0] * n, [NONE] * n, [-1] * n
    dist, stamp = [0] * n, [0] * n
    tree[source], tree[sink] = 1, -1
    parent[source] = parent[sink] = ROOT
    resume[source] = resume[sink] = 0
    active, orphans = deque((source, sink)), deque()
    time = 0
    while active:
        p = active[0]
        side, arcs, start = tree[p], adjacency[p], resume[p]
        flip = 0 if side > 0 else 1  # arc i to a child carries flow on i ^ flip
        found = -1
        if side:
            grown, time_p = dist[p] + 1, stamp[p]
            for i in itertools.islice(arcs, start, None):
                if residual[i ^ flip]:
                    q = heads[i]
                    tree_q = tree[q]
                    if not tree_q:
                        tree[q], parent[q], dist[q], stamp[q] = side, i ^ 1, grown, time_p
                        if resume[q] < 0:
                            active.append(q)
                        resume[q] = 0
                    elif tree_q != side:
                        found = i
                        break
        if found < 0:
            active.popleft()
            resume[p] = -1
            continue
        resume[p] = arcs.index(found, start)

        meet = found ^ flip  # from the source tree into the sink tree
        path = [(meet, NONE)]  # (arc along the flow, the child whose tree link it is)
        for u, partner in ((heads[meet ^ 1], 1), (heads[meet], 0)):  # source side: flow on partners
            while parent[u] != ROOT:
                path.append((parent[u] ^ partner, u))
                u = heads[parent[u]]
        pushed = min(residual[i] for i, _ in path)
        for i, child in path:
            residual[i] -= pushed
            residual[i ^ 1] += pushed
            if not residual[i] and child != NONE:
                parent[child] = NONE
                orphans.append(child)
        value = value + pushed

        time += 1
        stamp[source] = stamp[sink] = time  # a root's distance 0 is always current
        while orphans:
            o = orphans.popleft()
            side = tree[o]
            inward = 1 if side > 0 else 0  # arc i to a parent carries flow on i ^ inward
            best, best_dist = NONE, n
            for i in adjacency[o]:
                q = heads[i]
                if not residual[i ^ inward] or tree[q] != side:
                    continue
                j, d = q, 0
                while stamp[j] != time and parent[j] >= 0:
                    j = heads[parent[j]]
                    d += 1
                if stamp[j] != time:
                    continue  # q descends from an orphan
                d += dist[j]
                if d < best_dist:
                    best, best_dist = i, d
                while stamp[q] != time:
                    stamp[q], dist[q] = time, d
                    d -= 1
                    q = heads[parent[q]]
            if best != NONE:
                parent[o], stamp[o], dist[o] = best, time, best_dist + 1
                continue
            tree[o] = 0
            for i in adjacency[o]:
                q = heads[i]
                if tree[q] != side:
                    continue
                if parent[q] >= 0 and heads[parent[q]] == o:
                    parent[q] = NONE
                    orphans.append(q)
                if residual[i ^ inward]:
                    if resume[q] < 0:
                        active.append(q)
                    resume[q] = 0
    if value >= big:
        return INF, None, INF

    cut = (caps[i] for i in range(0, len(caps), 2) if tree[heads[i ^ 1]] > 0 >= tree[heads[i]])
    cut_value = sum(cut, 0)
    if cut_value != value:
        raise RuntimeError("max-flow / min-cut duality violated")
    return value, frozenset(v for v in range(n) if tree[v] > 0), cut_value


def _cut_template(f, order: tuple):
    """A binary table's share of the cut encoding, in rank space: B[0][0]
    for the offset, the linear terms of its first and second node's
    thresholds 1..d-1, and its arcs (s, t, capacity) from threshold s + 1 of
    the first node to threshold t + 1 of the second, whose capacities are
    B's negated second differences.  None when a second difference is
    positive: on a product of two chains that is exactly a failure of
    submodularity (Topkis, Oper. Res. 1978)."""
    d = f.domain_size
    B = [[f.table[order[s] * d + order[t]] for t in range(d)] for s in range(d)]
    rows = [B[s][0] - B[s - 1][0] for s in range(1, d)]
    cols = [B[0][t] - B[0][t - 1] for t in range(1, d)]
    arcs = []
    for s in range(1, d):
        for t in range(1, d):
            dd = B[s][t] - B[s - 1][t] - B[s][t - 1] + B[s - 1][t - 1]
            if dd > 0:
                return None
            if dd != 0:
                rows[s - 1] += dd
                arcs.append((s - 1, t - 1, -dd))
    return B[0][0], rows, cols, arcs


def solve_mincut(instance: VcspInstance, order: tuple) -> SolveResult | None:
    """Exact optimum through the threshold-indicator cut encoding, or None
    when the route does not take the instance: it has no terms, or a table
    has arity above 2 or an INF entry, or a binary table that some term
    applies to two distinct nodes has no cut template under the order.

    Each distinct table is decided once, however many terms use it.  The
    decoded assignment is the canonical minimum cut (pointwise lowest in
    the order among optima); its cost is re-evaluated and always equals
    offset + flow.  Only the nodes some term touches get rows and threshold
    indicators; the others take the order's first label.
    """
    n = instance.node_count
    terms = instance.terms
    if not terms:
        return None
    d = terms[0][0].domain_size
    if sorted(order) != list(range(d)):
        raise InputError(f"order {order} is not a permutation of 0..{d - 1}")
    touched = sorted({v for _, scope in terms for v in scope})
    row = {v: r for r, v in enumerate(touched)}  # node -> its row and indicators
    unary = [[0] * d for _ in touched]  # rank space
    offset = 0
    binary_terms = []
    templates = {}  # id of each table taken -> its cut template, None until a term needs one
    for f, scope in terms:
        key = id(f)
        if key not in templates:
            if f.arity > 2 or not f.is_finite_valued():
                return None
            templates[key] = None
        if f.arity == 0:
            offset += f.table[0]
        elif f.arity == 1 or scope[0] == scope[1]:
            step = 1 if f.arity == 1 else d + 1  # a self-loop reads the diagonal
            r = row[scope[0]]
            unary[r] = [c + f.table[label * step] for c, label in zip(unary[r], order)]
        else:
            template = templates[key]
            if template is None:
                template = templates[key] = _cut_template(f, order)
                if template is None:
                    return None
            binary_terms.append((template, row[scope[0]], row[scope[1]]))

    k = d - 1  # threshold t in 1..k of row v: node 2 + v*k + t - 1, linear term linear[v][t - 1]
    source, sink = 0, 1
    linear = []
    for u in unary:
        offset += u[0]
        linear.append([u[t] - u[t - 1] for t in range(1, d)])
    net = FlowNetwork(2 + len(touched) * k)
    heads, caps, adjacency = net.heads, net.caps, net.adjacency  # arcs first, adjacency after
    for (corner, rows, cols, arcs), u, v in binary_terms:
        offset += corner
        lu, lv = linear[u], linear[v]
        for t in range(k):
            lu[t] += rows[t]
            lv[t] += cols[t]
        base_u, base_v = 2 + u * k, 2 + v * k
        for s, t, c in arcs:
            heads += (base_v + t, base_u + s)
            caps += (c, 0)
    for v, terms_v in enumerate(linear):
        base = 2 + v * k
        for t, a in enumerate(terms_v, base):
            if a > 0:
                heads += (sink, t)
                caps += (a, 0)
            elif a < 0:
                offset += a
                heads += (t, source)
                caps += (-a, 0)
        for t in range(base, base + k - 1):  # threshold t + 1 implies t
            heads += (t, t + 1)
            caps += (INF, 0)
    for i in range(len(heads)):  # each node's arcs in index order
        adjacency[heads[i ^ 1]].append(i)

    value, source_side, cut_value = max_flow(net, source, sink)
    if value is INF:
        raise RuntimeError("finite-table encoding cannot have an infinite cut")
    assignment = [order[0]] * n
    for v, node in enumerate(touched):
        base = 2 + v * k
        indicators = [t in source_side for t in range(base, base + k)]
        rank = indicators.count(True)
        if True in indicators[rank:]:
            raise RuntimeError("threshold indicators must form a staircase")
        assignment[node] = order[rank]
    assignment = tuple(assignment)
    cost = offset + value
    check = evaluate(instance, assignment)
    if check != cost:
        raise RuntimeError(f"decoded cost {check} != offset+flow {cost}")
    stats = {"flow": value, "cut": cut_value, "offset": offset}
    return SolveResult(assignment, cost, "min_cut", stats)


def solve(
    instance: VcspInstance,
    classification: "dichotomy.Classification",
    budget: int = DEFAULT_BRUTE_BUDGET,
) -> SolveResult:
    """Dispatch: min-cut when the language is tractable with a known order
    and the route takes the instance; exact elimination otherwise."""
    order = classification.submodular_order
    tractable = classification.verdict == dichotomy.TRACTABLE and order is not None
    if tractable and instance.node_count > 0:
        result = solve_mincut(instance, order)
        if result is not None:
            return result
    try:
        return eliminate(instance, budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            f"no polynomial route for a {classification.verdict} language "
            f"instance of this size: {exc} (raise it with --brute-budget or CVCSP_BRUTE_BUDGET)"
        ) from exc
