"""Pair graph over ordered label pairs, with soft/hard edge classification.

Nodes are ordered pairs of distinct labels.  An edge between (a, b) and
(a', b') is witnessed by a binary view f satisfying the strict exchange
inequality f(a,a') + f(b,b') > f(a,b') + f(b,a') with both mixed entries
finite; the edge is soft when at least one of the two aligned entries is
also finite.  Adding unaries changes no exchange test and transposing a
view gives the same unordered edges, so detection scans each normal form
(a finite table less its unary parts, or a table with INF as it is) once,
together with its transpose, and skips the quadruples of edges already
soft.  Detected edges are closed under two inference rules:

  mirror: an edge {p, q} forces {bar(p), bar(q)} with the same softness;
  chain:  edges {p, q} and {q, r} force {p, bar(r)}, soft if either parent
          is soft.

Each unordered label pair {a, b}, a < b, carries one sign variable; node
(a, b) is its positive literal and (b, a) its negative one.  An edge {p, q}
states lit(p) = -lit(q), and both rules only combine such equations, so the
closure is a signed union-find over the sign variables (union by size, path
compression, each variable keeping its sign relative to its parent).  In a
component whose equations contradict each other every pair of literals is
an edge, self-loops included, and those literals form M-bar; in any other
component the edges are exactly the pairs of literals of opposite sign.  A
component holding one soft edge has only soft edges, because a derivation
can always detour over the soft edge and back.

The graph holds the pool it was detected from and its Closure: the
union-find's components, each variable with its sign relative to the
smallest variable of its component, and the deduplicated detected edges.
The sign search reads its candidates from the components and the
general-valued signs are its first candidate; the edge counts come from the
component sizes (k variables give k^2 edges, or k(2k+1) when contradicted).
The closed edges themselves are enumerated from the components only for DOT
output (closed_edges).

Witnesses are not stored with the closure.  An edge's witness view is built
on demand from the shortest walk over detected edges that derives it, found
by breadth-first search with neighbours in sorted order and, for a soft
edge, through at least one soft edge.  The walk is replayed numerically:
the first step's view is chained with each further one by unary
rebalancing and a middle-pinned minimum, and mirrored or reversed steps
reuse a detection through a relabelled quadruple or a transpose.  This is
how soft self-loop witnesses are extracted: the candidates are the looped
literals of soft components.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction

from .model import INF, Language, Record, _set
from .express import (
    BinaryView,
    Pool,
    PoolBudget,
    add_unaries_view,
    enumerate_binary_pool,
    min_chain,
    transpose_view,
)


def bar(p: tuple) -> tuple:
    return (p[1], p[0])


def _edge_key(p: tuple, q: tuple) -> tuple:
    return (p, q) if p <= q else (q, p)


class PairEdge(Record):
    """A detected edge with the first view and quadruple that witness it.
    Its endpoints are canonical, (min node, max node); equal for self-loops."""

    __slots__ = ("endpoints", "soft", "view", "quad")

    def __init__(self, endpoints: tuple, soft: bool, view: BinaryView, quad: tuple):
        _set(self, "endpoints", endpoints)
        _set(self, "soft", soft)
        _set(self, "view", view)
        _set(self, "quad", quad)


def _edges_per_component(closure) -> dict:
    """Closed edges per component of a Closure, by its root."""
    sizes = Counter(root for root, _ in closure.signs.values())
    return {
        root: k * (2 * k + 1) if root in closure.contradicted else k * k
        for root, k in sizes.items()
    }


class Closure(Record):
    """The signed union-find of the closed edges, and the detections it joined.

    signs maps each variable on an edge to (the smallest variable of its
    component, its sign relative to that variable); a variable on no edge is
    a component of its own.  contradicted and soft name components by their
    smallest variable.  detected holds one detection per edge, soft over
    hard, in endpoint order.  Its length is the number of closed edges.
    """

    __slots__ = ("detected", "signs", "contradicted", "soft")

    def __init__(self, detected: tuple, signs: dict, contradicted: frozenset, soft: frozenset):
        _set(self, "detected", detected)
        _set(self, "signs", signs)
        _set(self, "contradicted", contradicted)
        _set(self, "soft", soft)

    def __len__(self) -> int:
        return sum(_edges_per_component(self).values())


class PairGraph(Record):
    __slots__ = ("domain_size", "M", "m_bar", "closure", "pool")

    def __init__(self, domain_size: int, M: tuple, m_bar: tuple, closure: Closure, pool: Pool):
        _set(self, "domain_size", domain_size)
        _set(self, "M", M)
        _set(self, "m_bar", m_bar)
        _set(self, "closure", closure)
        _set(self, "pool", pool)

    @property
    def nodes(self) -> tuple:
        return all_pair_nodes(self.domain_size)

    @property
    def truncated(self) -> bool:
        return self.pool.truncated

    def sign_of(self, v: tuple) -> tuple:
        """(smallest variable of v's component, v's sign relative to it)."""
        return self.closure.signs.get(v, (v, 1))

    def edge_count(self) -> int:
        return len(self.closure)

    def soft_count(self) -> int:
        soft = self.closure.soft
        return sum(n for root, n in _edges_per_component(self.closure).items() if root in soft)


def all_pair_nodes(domain_size: int) -> tuple:
    return tuple(
        (a, b) for a in range(domain_size) for b in range(domain_size) if a != b
    )


def _exchange_violation(view: BinaryView, quad: tuple):
    """Return (is_edge, is_soft) of the exchange inequality at a quadruple."""
    a, b, a2, b2 = quad
    t = view.table.table
    d = view.domain_size
    cross1 = t[a * d + b2]
    cross2 = t[b * d + a2]
    if cross1 is INF or cross2 is INF:
        return False, False
    diag1 = t[a * d + a2]
    diag2 = t[b * d + b2]
    if not diag1 + diag2 > cross1 + cross2:
        return False, False
    return True, diag1 is not INF or diag2 is not INF


def _normal_form(t: tuple, d: int) -> tuple:
    """A table less its unary parts; views of one form fail the same exchange tests.

    A finite table's form is t(x,y) - t(x,0) - t(0,y) + t(0,0), the same for
    every table that differs from it by unaries; a table with INF is its own
    form.
    """
    if any(v is INF for v in t):
        return t
    first = t[:d]
    return tuple(
        t[x * d + y] - t[x * d] - first[y] + t[0] for x in range(d) for y in range(d)
    )


def detect_edges(views, domain_size: int) -> list:
    """Scan the views and quadruples; merge duplicates keeping soft over hard.

    The first soft detection of an edge in scan order (views, then p, then
    q) witnesses it, or the first hard one when none is soft.  Adding
    unaries changes no exchange test, and transposing a view only swaps p
    and q, so a view whose normal form or its transpose was already scanned
    can add nothing and is skipped, as is every quadruple whose edge is
    already soft.  The test is _exchange_violation's, inlined.
    """
    d = domain_size
    pairs = all_pair_nodes(d)  # sorted, so p <= q exactly when p's index is
    n = len(pairs)
    found: dict = {}  # index of (p, q) with p <= q -> PairEdge
    soft = bytearray(n * n)  # set at both orders of a soft edge
    scanned: set = set()
    for view in views:
        if view.domain_size != d:
            raise ValueError(f"view {view.table.name} has a mismatched domain size")
        t = view.table.table
        form = _normal_form(t, d)
        if form in scanned:
            continue
        scanned.add(form)
        scanned.add(tuple(form[y * d + x] for x in range(d) for y in range(d)))
        for i, p in enumerate(pairs):
            a, b = p
            ta = t[a * d : a * d + d]
            tb = t[b * d : b * d + d]
            for k, q in enumerate(pairs, i * n):
                if soft[k]:
                    continue
                a2, b2 = q
                cross1 = ta[b2]
                cross2 = tb[a2]
                if cross1 is INF or cross2 is INF:
                    continue
                diag1 = ta[a2]
                diag2 = tb[b2]
                if not diag1 + diag2 > cross1 + cross2:
                    continue
                j = k - i * n
                key = k if i <= j else j * n + i
                is_soft = diag1 is not INF or diag2 is not INF
                if is_soft:
                    soft[k] = soft[j * n + i] = 1
                elif key in found:
                    continue
                found[key] = PairEdge(_edge_key(p, q), is_soft, view, (a, b, a2, b2))
    return [found[k] for k in sorted(found)]


def _variable(p: tuple) -> tuple:
    """The sign variable of node p and the sign of p's literal."""
    return (p, 1) if p[0] < p[1] else ((p[1], p[0]), -1)


def close_edges(edges) -> Closure:
    """The signed union-find of the smallest edge set holding the given edges
    and closed under the mirror and chain rules."""
    given: dict = {}
    for e in edges:
        known = given.get(e.endpoints)
        if known is None or (e.soft and not known.soft):
            given[e.endpoints] = e

    parent: dict = {}  # variable -> (parent, sign of the variable relative to it)
    size: dict = {}
    contradiction: set = set()  # roots of components whose equations conflict
    soft: set = set()  # roots of components holding a soft edge

    def find(v):
        up, sign = parent.setdefault(v, (v, 1))
        if up == v:
            size.setdefault(v, 1)
            return v, 1
        root, up_sign = find(up)
        parent[v] = (root, sign * up_sign)
        return root, sign * up_sign

    for (p, q), e in given.items():
        (vp, sp), (vq, sq) = _variable(p), _variable(q)
        rp, tp = find(vp)
        rq, tq = find(vq)
        relation = -sp * tp * sq * tq  # the edge says x(rp) = relation * x(rq)
        if rp == rq:
            if relation != 1:
                contradiction.add(rp)
        else:
            if size[rp] > size[rq]:
                rp, rq = rq, rp
            parent[rp] = (rq, relation)
            size[rq] += size.pop(rp)
            for flags in (contradiction, soft):
                if rp in flags:
                    flags.discard(rp)
                    flags.add(rq)
        if e.soft:
            soft.add(find(vp)[0])

    signs: dict = {}
    smallest: dict = {}  # root -> (smallest variable, its sign relative to the root)
    for v in sorted(parent):
        root, sign = find(v)
        first, flip = smallest.setdefault(root, (v, sign))
        signs[v] = (first, sign * flip)
    return Closure(
        detected=tuple(given[k] for k in sorted(given)),
        signs=signs,
        contradicted=frozenset(smallest[root][0] for root in contradiction),
        soft=frozenset(smallest[root][0] for root in soft),
    )


def closed_edges(closure: Closure):
    """The closed edges of a Closure, as (endpoints, soft) in endpoint order.

    A contradicted component joins every pair of its literals, self-loops
    included; any other joins exactly the literals of opposite sign.
    """
    components: dict = {}  # smallest variable -> [(variable, its sign)]
    for v, (root, sign) in closure.signs.items():
        components.setdefault(root, []).append((v, sign))
    edges = []
    for root, members in components.items():
        literals = sorted(members + [(bar(v), -sign) for v, sign in members])
        is_soft = root in closure.soft
        if root in closure.contradicted:
            edges.extend(
                ((p, q), is_soft) for i, (p, _) in enumerate(literals) for q, _ in literals[i:]
            )
        else:
            edges.extend(
                (_edge_key(p, q), is_soft)
                for p, s in literals
                if s > 0
                for q, t in literals
                if t < 0
            )
    yield from sorted(edges)


def build_graph(lang: Language, budget: PoolBudget = PoolBudget()) -> PairGraph:
    pool = enumerate_binary_pool(lang, budget)
    closure = close_edges(detect_edges(pool.views, lang.domain_size))
    nodes = all_pair_nodes(lang.domain_size)
    looped = {v for v, (root, _) in closure.signs.items() if root in closure.contradicted}
    return PairGraph(
        domain_size=lang.domain_size,
        M=tuple(p for p in nodes if _variable(p)[0] not in looped),
        m_bar=tuple(p for p in nodes if _variable(p)[0] in looped),
        closure=closure,
        pool=pool,
    )


def _balance_block(view: BinaryView, quad: tuple) -> BinaryView:
    """Rebalance a witness with unaries so its 2x2 block is chain-ready.

    After rebalancing, the two mixed entries are equal and both aligned
    entries strictly exceed them (infinite entries trivially do).  The
    exchange-inequality margin is preserved because unary additions shift
    both sides of the inequality by the same amount.
    """
    a1, b1, a2, b2 = quad
    t = view.table.table
    d = view.domain_size
    alpha = t[a1 * d + a2]
    alpha2 = t[b1 * d + b2]
    g12 = t[a1 * d + b2]
    g21 = t[b1 * d + a2]
    if g12 is INF or g21 is INF:
        raise ValueError("witness quadruple has an infinite mixed entry")
    if alpha is INF and alpha2 is INF:
        vm = wm = 0
    elif alpha is INF:
        vm, wm = 0, max(0, g21 - alpha2 + 1)
    elif alpha2 is INF:
        wm, vm = 0, max(0, g12 - alpha + 1)
    else:
        # split the (positive) total margin evenly between the two sides
        gap = Fraction(g12 - alpha + alpha2 - g21, 2)
        vm = max(0, gap)
        wm = vm - gap
    delta = g21 - g12 + vm - wm
    sm = max(0, delta)
    tm = sm - delta
    u1 = [0] * d
    u2 = [0] * d
    u1[a1], u1[b1] = sm, tm
    u2[a2], u2[b2] = vm, wm
    return add_unaries_view(view, u1, u2)


def _detected_steps(detected) -> dict:
    """Oriented steps of the literal graph over detected edges.

    node -> neighbour -> (soft, view, quad, transposed): the detection's view,
    transposed when the flag says so, violates the exchange inequality at
    quad for the step (node, neighbour), and is soft when the detection is.
    A step's own detection is preferred to its mirror's unless only the
    mirror's is soft.
    """
    steps: dict = {}

    def add(x, y, step):
        known = steps.setdefault(x, {}).get(y)
        if known is None or (step[0] and not known[0]):
            steps[x][y] = step

    for e in detected:
        a, b, c, d = e.quad
        add((a, b), (c, d), (e.soft, e.view, (a, b, c, d), False))
        add((c, d), (a, b), (e.soft, e.view, (c, d, a, b), True))
    for e in detected:
        a, b, c, d = e.quad
        add((b, a), (d, c), (e.soft, e.view, (b, a, d, c), False))
        add((d, c), (b, a), (e.soft, e.view, (d, c, b, a), True))
    return steps


def _shortest_walk(steps: dict, u: tuple, v: tuple, need_soft: bool):
    """Fewest steps deriving the edge (u, v), or None.

    The walk's k-th step (x, y) chains the edge (u, x) derived so far into
    (u, bar(y)); the first step is itself the edge (u, y).  So a walk of odd
    length ends at v in the literal graph, one of even length at bar(v).
    """
    prev: dict = {}
    queue = deque()

    def visit(state, came_from, step):
        if state not in prev:
            prev[state] = (came_from, step)
            queue.append(state)

    for y, (soft, *_) in sorted(steps.get(u, {}).items()):
        visit((y, need_soft and soft), None, (u, y))
    while queue:
        state = queue.popleft()
        x, has_soft = state
        if x == v and has_soft == need_soft:
            walk = []
            while state is not None:
                state, step = prev[state]
                walk.append(step)
            return walk[::-1]
        for y, (soft, *_) in sorted(steps.get(x, {}).items()):
            visit((bar(y), has_soft or (need_soft and soft)), state, (x, y))
    return None


def materialize_edge_witness(detected, u: tuple, v: tuple, soft: bool):
    """Produce (view, quad) witnessing the closed edge (u, v) in that orientation.

    The returned view satisfies the exchange inequality for the quadruple
    (u0, u1, v0, v1), softly when soft is set.  It is replayed along the
    shortest walk over the detected edges that derives the edge.
    """
    steps = _detected_steps(detected)
    walk = _shortest_walk(steps, u, v, soft)
    if walk is None:
        raise ValueError(f"no walk over detected edges derives {_edge_key(u, v)}")

    def step_view(x, y):
        _, view, quad, transposed = steps[x][y]
        return (transpose_view(view) if transposed else view), quad

    view, quad = step_view(*walk[0])
    for x, y in walk[1:]:
        g, g_quad = step_view(x, y)
        view = min_chain(_balance_block(view, quad), _balance_block(g, g_quad), x)
        quad = (u[0], u[1], y[1], y[0])
    return view, quad


class SoftLoopWitness(Record):
    """A view whose exchange inequality holds softly at node + node."""

    __slots__ = ("node", "view")

    def __init__(self, node: tuple, view: BinaryView):
        _set(self, "node", node)
        _set(self, "view", view)


def find_soft_self_loop(graph: PairGraph):
    """Extract an explicit soft self-loop witness, or None.

    The candidates are the looped literals of soft components, those with a
    soft detected loop first; the others are replayed along their shortest
    walk over detected edges.  Views whose pin penalty leaked are skipped
    (they are sound for edge detection but unsuitable as hardness
    witnesses).  The extracted witness is re-verified before being returned.
    """
    closure = graph.closure
    detected_loops = {
        e.endpoints[0] for e in closure.detected if e.soft and e.endpoints[0] == e.endpoints[1]
    }
    loops = [p for p in graph.m_bar if graph.sign_of(_variable(p)[0])[0] in closure.soft]
    loops.sort(key=lambda p: (p not in detected_loops, p))
    for p in loops:
        try:
            view, _ = materialize_edge_witness(closure.detected, p, p, True)
        except ValueError:
            continue
        if view.penalty_leaked:
            continue
        hit, soft = _exchange_violation(view, p + p)
        if hit and soft:
            return SoftLoopWitness(node=p, view=view)
    return None


def to_dot(graph: PairGraph) -> str:
    """Deterministic DOT rendering: soft solid, hard dashed, looped shaded."""
    m_bar_set = set(graph.m_bar)
    lines = ["graph pair_graph {"]
    for p in graph.nodes:
        label = f"{p[0]}|{p[1]}"
        if p in m_bar_set:
            lines.append(f'  "{label}" [style=filled, fillcolor=gray80];')
        else:
            lines.append(f'  "{label}";')
    for (p, q), soft in closed_edges(graph.closure):
        style = "" if soft else " [style=dashed]"
        lines.append(f'  "{p[0]}|{p[1]}" -- "{q[0]}|{q[1]}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
