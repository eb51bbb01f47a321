"""Reference implementations the tests compare the package against, and
helpers the tests build their inputs with.

Each paragraph below names a reference, the live routine it checks and the
library helpers it shares.  Every other step of a reference is its own
code, so agreement between the two sides is meaningful.

Enumeration (`has_stp`, `violates_inequality`, `min_cost`, `max_cut_value`,
`independent_set_value`, `view_table_by_replay`) checks the classifier's
verdicts, `dichotomy.verify_multimorphism`, `solver.solve`, the max-cut and
independent-set reductions and the pooled views' tables.  It shares the
cost records and INF; the replay also uses `model.evaluate`.

The worklist closure (`close_edges`, `compute_m`, `find_soft_self_loop`)
checks `pairgraph.close_edges`, the M/M-bar split and the soft self-loop
witness, which it derives from its own provenance chains.  It shares
`_edge_key`, `bar`, `all_pair_nodes`, `_exchange_violation`,
`_balance_block`, `min_chain` and `transpose_view`.  The structural checks
after it (`check_graph_invariants`, `mirror_symmetric`) read the library's
`closed_edges`.

The enumerating sign search (`search_stp`) runs its own union-find over the
closed edges and tries every mask; it checks the certificate and the
component count of `dichotomy.search_stp`.  The mask walk
(`walk_search_stp`) checks the candidate order: only it pins the exact
`candidates` count, and on the 300 languages of
`test_search_matches_the_walk_on_two_function_languages` the enumerating
search takes 25.4 s against the live search's 0.36 s (CPython 3.11 on a
shared 2-vCPU machine, as below).  Both share `verify_multimorphism`; the
enumerating search reads the library's `closed_edges`, and the walk shares
`sign_pair`, the closure's `sign_of` and `STP_CANDIDATE_BUDGET`.

The sign builders (`build_meet_join`, `candidate_sign`, `two_color`,
`check_sign_assignment`) check `dichotomy.sign_pair` and the report's
signs.  `min_max_pair` and the permutation loop `loop_submodular_order`
check the order search.  They share `OperationPair`, the closure's
`sign_of` and, for the loop, `verify_multimorphism`.

The max-flow references (`edmonds_karp`, `dinic`) check `solver.max_flow`
on networks laid out with `add_arc`; they share only that layout.  Dinic
stays beside Edmonds-Karp for the large networks of
`test_solve_mincut_matches_dinic_on_larger_shapes`: Edmonds-Karp takes
113.5 s on path3000-d8, 11.5 s on random500-d6 and 7.6 s on grid40-d4,
where Dinic takes 0.45 s, 0.04 s and 0.15 s with the same results.

The test-only helpers build inputs and predicates for the tests: operation
pair predicates, base and symmetrized views, the hardness witness's
normalized block, the replay of a view's provenance as an instance, the
language serializer (sharing `cli.cost_to_json`), language diagnostics,
the cost shift, the fixed-value unary, and `submodularity_violation`,
which checks the solver's min/max submodularity test.

The old witness choice (`old_normalize_witness`, `old_reduction_witness`)
refused a one-infinite witness whose finite block is not flat.  It stays
as the only check that the `auto` witness of `commands.reduction_witness` is
byte for byte the same wherever the old code normalized it.  It shares
`_exchange_violation`, `_is_symmetric`, the library's `symmetrize`,
`add_unaries_view`, `shift_view` and `HardnessWitness`.

The unbatched pool and the full detection scan (`enumerate_binary_pool`,
`detect_edges`) check `express.enumerate_binary_pool` and
`pairgraph.detect_edges`, and build the detected edges the closure tests
start from.  They share the view records, `_binary`, `_prov_name`,
`_exchange_violation`, `_edge_key` and `PairEdge`.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from cvcsp.cli import cost_to_json
from cvcsp.model import (
    INF,
    BudgetExceeded,
    CostFunction,
    InputError,
    Language,
    VcspInstance,
    as_cost,
    evaluate,
)
from cvcsp.express import (
    BinaryView,
    Pool,
    PoolBudget,
    _binary,
    _prov_name,
    add_unaries_view,
    min_chain,
    shift_view,
    transpose_view,
)
from cvcsp.express import symmetrize as symmetrize_view
from cvcsp.dichotomy import (
    STP_CANDIDATE_BUDGET,
    OperationPair,
    sign_pair,
    verify_multimorphism,
)
from cvcsp.hardness import HardnessWitness, _is_symmetric
from cvcsp.pairgraph import (
    PairEdge,
    PairGraph,
    SoftLoopWitness,
    _balance_block,
    _edge_key,
    _exchange_violation,
    all_pair_nodes,
    bar,
    closed_edges,
)


def tup_index(args, d):
    idx = 0
    for a in args:
        idx = idx * d + a
    return idx


def conservative_commutative_pairs(d):
    """Enumerate every meet/join pair that keeps {a,b} and is commutative.

    One independent orientation choice per unordered label pair: the chosen
    element is the meet of both argument orders.
    """
    unordered = [(a, b) for a in range(d) for b in range(a + 1, d)]
    for choice in itertools.product((0, 1), repeat=len(unordered)):
        meet = [0] * (d * d)
        join = [0] * (d * d)
        for a in range(d):
            meet[a * d + a] = join[a * d + a] = a
        for (a, b), pick in zip(unordered, choice):
            lo = a if pick == 0 else b
            hi = b if pick == 0 else a
            for x, y in ((a, b), (b, a)):
                meet[x * d + y] = lo
                join[x * d + y] = hi
        yield tuple(meet), tuple(join)


def violates_inequality(meet, join, f):
    """True if some pair of finite-cost tuples breaks the componentwise bound."""
    d = f.domain_size
    dom = [args for args in itertools.product(range(d), repeat=f.arity)
           if f.table[tup_index(args, d)] is not INF]
    for x in dom:
        for y in dom:
            mt = tuple(meet[a * d + b] for a, b in zip(x, y))
            jt = tuple(join[a * d + b] for a, b in zip(x, y))
            lhs = f.table[tup_index(mt, d)] + f.table[tup_index(jt, d)]
            rhs = f.table[tup_index(x, d)] + f.table[tup_index(y, d)]
            if lhs > rhs:
                return True
    return False


def has_stp(functions, d):
    """Does any conservative commutative pair satisfy the bound everywhere?"""
    for meet, join in conservative_commutative_pairs(d):
        if not any(violates_inequality(meet, join, f) for f in functions):
            return True
    return False


def max_cut_value(src):
    best = 0
    for mask in range(1 << src.vertex_count):
        cut = 0
        for u, v in src.edges:
            if ((mask >> u) & 1) != ((mask >> v) & 1):
                cut += 1
        best = max(best, cut)
    return best


def independent_set_value(src):
    best = 0
    for mask in range(1 << src.vertex_count):
        ok = all(
            not ((mask >> u) & 1 and (mask >> v) & 1) for u, v in src.edges
        )
        if ok:
            best = max(best, bin(mask).count("1"))
    return best


def min_cost(instance, d):
    """Exhaustive instance minimum with its own evaluation loop."""
    best = INF
    best_x = None
    for x in itertools.product(range(d), repeat=instance.node_count):
        total = 0
        for f, scope in instance.terms:
            v = f.table[tup_index(tuple(x[i] for i in scope), d)]
            total = total + v
            if total is INF:
                break
        if best_x is None or total < best:
            best = total
            best_x = x
    return best, best_x


def view_table_by_replay(provenance, lang):
    """Recompute a view's table by minimizing its replayed instance.

    Uses the library's evaluator on the explicit instance, which exercises a
    completely different code path than the view constructors.
    """
    instance = as_instance(provenance, lang)
    d = lang.domain_size
    aux = instance.node_count - 2
    entries = []
    for x in range(d):
        for y in range(d):
            best = INF
            for rest in itertools.product(range(d), repeat=aux):
                v = evaluate(instance, (x, y) + rest)
                if v < best:
                    best = v
            entries.append(best)
    return tuple(entries)


# ------------------------------------------------ pair-graph closure oracle


@dataclass(frozen=True)
class ClosedEdge:
    """A closed edge with the provenance the oracles' witnesses replay."""

    endpoints: tuple
    soft: bool
    provenance: tuple  # ("detected", view, quad) or a kind derived from it

    @property
    def is_self_loop(self) -> bool:
        return self.endpoints[0] == self.endpoints[1]


def close_edges(edges) -> list:
    """Smallest superset closed under the mirror and chain rules.

    Softness propagates: a hard edge re-derived softly is upgraded in place
    (its provenance switches to the soft derivation so witnesses stay
    extractable).
    """
    state: dict = {}
    queue: list = []

    def insert(key, soft, provenance):
        existing = state.get(key)
        if existing is None:
            state[key] = ClosedEdge(key, soft, provenance)
            queue.append(key)
        elif soft and not existing.soft:
            state[key] = ClosedEdge(key, soft, provenance)
            queue.append(key)

    for e in edges:
        insert(e.endpoints, e.soft, ("detected", e.view, e.quad))

    def orientations(key):
        p, q = key
        return ((p, q),) if p == q else ((p, q), (q, p))

    head = 0
    while head < len(queue):
        key = queue[head]
        head += 1
        edge = state[key]
        p, q = key
        mirror_key = _edge_key(bar(p), bar(q))
        insert(mirror_key, edge.soft, ("mirror", key))
        for other_key in sorted(state):
            other = state[other_key]
            for o1 in orientations(key):
                for o2 in orientations(other_key):
                    if o1[1] == o2[0]:
                        derived = _edge_key(o1[0], bar(o2[1]))
                        insert(
                            derived,
                            edge.soft or other.soft,
                            ("chain", o1, key, o2, other_key),
                        )
                    if o2[1] == o1[0]:
                        derived = _edge_key(o2[0], bar(o1[1]))
                        insert(
                            derived,
                            edge.soft or other.soft,
                            ("chain", o2, other_key, o1, key),
                        )
    return [state[k] for k in sorted(state)]


def compute_m(domain_size: int, edges) -> tuple:
    """Split the pair nodes into loop-free (M) and self-looped (M-bar) sets."""
    loops = {e.endpoints[0] for e in edges if e.is_self_loop}
    nodes = all_pair_nodes(domain_size)
    m = tuple(p for p in nodes if p not in loops)
    m_bar = tuple(p for p in nodes if p in loops)
    return m, m_bar


def materialize_edge_witness(edge_map: dict, key: tuple, ordered: tuple):
    """Produce (view, quad) witnessing the edge in a requested orientation.

    The returned view satisfies the exchange inequality for the quadruple
    (u0, u1, v0, v1) where ordered = ((u0, u1), (v0, v1)); softness of the
    original edge carries over to the witness.
    """
    edge = edge_map[key]
    want = tuple(ordered)
    prov = edge.provenance
    kind = prov[0]
    if kind == "detected":
        view, quad = prov[1], prov[2]
        x, y = (quad[0], quad[1]), (quad[2], quad[3])
        if want == (x, y):
            return view, quad
        if want == (y, x):
            return transpose_view(view), (quad[2], quad[3], quad[0], quad[1])
        raise ValueError(f"edge {key} cannot witness orientation {want}")
    if kind == "mirror":
        parent_key = prov[1]
        w, q = materialize_edge_witness(edge_map, parent_key, (bar(want[0]), bar(want[1])))
        return w, (q[1], q[0], q[3], q[2])
    if kind == "chain":
        o1, k1, o2, k2 = prov[1], prov[2], prov[3], prov[4]
        p, q_node = o1
        r = o2[1]
        fv, fq = materialize_edge_witness(edge_map, k1, o1)
        gv, gq = materialize_edge_witness(edge_map, k2, o2)
        fhat = _balance_block(fv, fq)
        ghat = _balance_block(gv, gq)
        h = min_chain(fhat, ghat, (q_node[0], q_node[1]))
        quad = (p[0], p[1], r[1], r[0])
        if want == (p, bar(r)):
            return h, quad
        if want == (bar(r), p):
            return transpose_view(h), (quad[2], quad[3], quad[0], quad[1])
        raise ValueError(f"edge {key} cannot witness orientation {want}")
    raise ValueError(f"unknown edge provenance {kind!r}")


def find_soft_self_loop(closed):
    """The soft self-loop witness the provenance chains give, or None."""
    edge_map = {e.endpoints: e for e in closed}
    loops = [e for e in closed if e.is_self_loop and e.soft]
    loops.sort(key=lambda e: (e.provenance[0] != "detected", e.endpoints))
    for edge in loops:
        p = edge.endpoints[0]
        try:
            view, quad = materialize_edge_witness(edge_map, edge.endpoints, (p, p))
        except ValueError:
            continue
        if view.penalty_leaked:
            continue
        hit, soft = _exchange_violation(view, quad)
        if hit and soft:
            return SoftLoopWitness(node=p, view=view)
    return None


@dataclass(frozen=True)
class GraphDiagnostic:
    rule: str
    message: str
    witness: tuple


def _bipartition(graph: PairGraph, edges):
    """Two-color (M, E[M]); returns (colors, components, odd_cycle | None)."""
    adj = neighbors_in_m(graph, edges)
    colors: dict = {}
    component: dict = {}
    parents: dict = {}
    comp_id = 0
    odd_cycle = None
    for start in graph.M:
        if start in colors:
            continue
        colors[start] = 0
        component[start] = comp_id
        parents[start] = None
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in colors:
                        colors[v] = 1 - colors[u]
                        component[v] = comp_id
                        parents[v] = u
                        nxt.append(v)
                    elif colors[v] == colors[u] and odd_cycle is None:
                        odd_cycle = _cycle_through(parents, u, v)
            frontier = nxt
        comp_id += 1
    return colors, component, odd_cycle


def _path_to_root(parents: dict, u: tuple) -> list:
    path = [u]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return path


def _cycle_through(parents: dict, u: tuple, v: tuple) -> tuple:
    pu = _path_to_root(parents, u)
    pv = _path_to_root(parents, v)
    common = None
    pv_set = set(pv)
    for node in pu:
        if node in pv_set:
            common = node
            break
    up = pu[: pu.index(common) + 1]
    down = pv[: pv.index(common)]
    return tuple(up + list(reversed(down)))


def check_graph_invariants(graph: PairGraph, edges=None) -> list:
    """Structural diagnostics on a closed graph with no soft self-loop.

    edges are (endpoints, soft) pairs, the graph's closed edges by default.
    Violations indicate a closure bug: the inference rules are exactly what
    forces these properties, so a properly closed graph cannot fail them.
    """
    if edges is None:
        edges = list(closed_edges(graph.closure))
    out = []
    m_set = set(graph.M)
    for (p, q), _ in edges:
        if (p in m_set) != (q in m_set):
            out.append(
                GraphDiagnostic(
                    "boundary-edge",
                    f"edge {p}--{q} crosses between loop-free and looped nodes",
                    (p, q),
                )
            )
    colors, component, odd_cycle = _bipartition(graph, edges)
    if odd_cycle is not None:
        out.append(
            GraphDiagnostic(
                "odd-cycle",
                f"loop-free subgraph has an odd cycle {odd_cycle}",
                odd_cycle,
            )
        )
    for p in graph.M:
        pb = bar(p)
        if p < pb and component.get(p) is not None and component.get(p) == component.get(pb):
            if colors[p] == colors[pb]:
                out.append(
                    GraphDiagnostic(
                        "swap-parity",
                        f"{p} and {pb} share a component but sit in the same class",
                        (p, pb),
                    )
                )
    m_bar_set = set(graph.m_bar)
    for (p, q), soft in edges:
        if soft and (p in m_bar_set or q in m_bar_set):
            out.append(
                GraphDiagnostic(
                    "soft-at-loop",
                    f"soft edge {(p, q)} touches a self-looped node",
                    (p, q),
                )
            )
    return out


def mirror_symmetric(graph: PairGraph) -> bool:
    softness = dict(closed_edges(graph.closure))
    for (p, q), soft in softness.items():
        if softness.get(_edge_key(bar(p), bar(q))) != soft:
            return False
    return True


# ------------------------------------------------------------ sign oracles


@dataclass(frozen=True)
class SignAssignment:
    """A +/-1 orientation on pair nodes, antisymmetric under component swap."""

    entries: tuple  # sorted ((a, b), sign)

    @cached_property
    def sigma(self) -> dict:
        return dict(self.entries)


@dataclass(frozen=True)
class StpCertificate:
    pair: OperationPair
    sign: SignAssignment


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


def component_signs(graph: PairGraph, domain_size: int, flipped) -> dict:
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


def candidate_sign(graph: PairGraph, flipped=()) -> SignAssignment:
    """The sign the component-read search built for one candidate, the
    components in flipped negated."""
    sigma = component_signs(graph, graph.domain_size, flipped)
    return SignAssignment(entries=tuple(sorted(sigma.items())))


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


def loop_submodular_order(lang, pair):
    """The order the permutation loop gave: the certificate's order by wins
    when min/max under it is the certificate, else (or with no certificate)
    the first permutation in lexicographic sequence under which min/max
    verifies, or None.  The library tried at most 8! orders; this oracle has
    no limit."""
    d = lang.domain_size
    if pair is not None:
        wins = [sum(1 for b in range(d) if b != a and pair.meet_of(a, b) == a) for a in range(d)]
        order = tuple(sorted(range(d), key=lambda a: -wins[a]))
        if min_max_pair(order) == pair:
            return order
    for perm in itertools.permutations(range(d)):
        if verify_multimorphism(min_max_pair(perm), lang) is None:
            return perm
    return None


def neighbors_in_m(graph: PairGraph, edges=None) -> dict:
    """Adjacency over M restricted to edges with both endpoints in M; edges
    are (endpoints, soft) pairs, the graph's closed edges by default."""
    if edges is None:
        edges = closed_edges(graph.closure)
    m_set = set(graph.M)
    adj = {p: [] for p in graph.M}
    for (p, q), _ in edges:
        if p in m_set and q in m_set and p != q:
            adj[p].append(q)
            adj[q].append(p)
    for p in adj:
        adj[p] = sorted(set(adj[p]))
    return adj


def check_sign_assignment(sign: SignAssignment, adj: dict) -> None:
    sigma = sign.sigma
    for p, s in sign.entries:
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

    for (p, q), _ in closed_edges(graph.closure):
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


def search_stp(lang, graph: PairGraph):
    """The tournament-pair search over its own union-find of the closed
    edges.  Returns (certificate | None, stats)."""
    d = lang.domain_size
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
        pair = build_meet_join(sign, nodes, d)
        stats["candidates"] += 1
        if _violates_cached(pair, violation_cache):
            stats["cache_hits"] += 1
            continue
        hit = verify_multimorphism(pair, lang)
        if hit is None:
            return StpCertificate(pair=pair, sign=sign), stats
        violation_cache.append((lang.get(hit.function_name), hit.x, hit.y))
    return None, stats


def _violates_cached(pair, cache: list) -> bool:
    d = pair.domain_size
    for f, x, y in cache:
        mi = ji = 0
        for xa, ya in zip(x, y):
            mi = mi * d + pair.meet[xa * d + ya]
            ji = ji * d + pair.join[xa * d + ya]
        if f.table[mi] + f.table[ji] > f.value(x) + f.value(y):
            return True
    return False


def walk_search_stp(lang, graph: PairGraph):
    """The mask walk over the closure's components.  Returns (the first
    verified pair | None, stats)."""
    d = lang.domain_size
    stats = {"candidates": 0, "components": 0, "contradiction": False}
    if graph.closure.contradicted:
        stats["contradiction"] = True
        return None, stats
    roots = sorted({graph.sign_of((a, b))[0] for a in range(d) for b in range(a + 1, d)})
    stats["components"] = len(roots)
    root_bit = {root: 1 << k for k, root in enumerate(roots)}
    nogoods = []  # (bits, values): every mask that agrees on those bits fails
    refuted = {}  # bit -> the other bits of the nogood that ruled out its 0
    mask = 0
    while mask < 1 << len(roots):
        bits = next((b for b, v in nogoods if mask & b == v), 0)
        if not bits:
            if stats["candidates"] == STP_CANDIDATE_BUDGET:
                raise BudgetExceeded(
                    f"sign search verified {stats['candidates']} candidates without a "
                    f"verdict, the STP_CANDIDATE_BUDGET of {STP_CANDIDATE_BUDGET}"
                )
            stats["candidates"] += 1
            pair = sign_pair(graph, mask, root_bit)
            hit = verify_multimorphism(pair, lang)
            if hit is None:
                return pair, stats
            for xa, ya in zip(hit.x, hit.y):
                if xa != ya:
                    bits |= root_bit[graph.sign_of((min(xa, ya), max(xa, ya)))[0]]
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


# -------------------------------------------------------- max-flow oracle


def add_arc(network, tail: int, head: int, capacity) -> None:
    """Append the arc tail -> head and its zero-capacity partner to a
    `solver.FlowNetwork`, as `solver.solve_mincut` lays out its arcs."""
    if capacity is not INF and capacity < 0:
        raise InputError("arc capacities must be non-negative")
    network.adjacency[tail].append(len(network.caps))
    network.adjacency[head].append(len(network.caps) + 1)
    network.heads.extend((head, tail))
    network.caps.extend((capacity, 0))


def edmonds_karp(network, source: int, sink: int):
    """Exact max flow via shortest augmenting paths, deterministic arc order.

    Returns (value, source_side, cut_value) like `solver.max_flow`;
    source_side is the set of nodes residual-reachable from the source, and
    a fully infinite augmenting path yields (INF, None, INF).
    """
    caps = network.caps
    heads = network.heads
    adjacency = network.adjacency
    flow = [0] * len(caps)

    def residual(i):
        c = caps[i]
        return INF if c is INF else c - flow[i]

    value = 0
    while True:
        parent_arc = {source: None}
        queue = [source]
        head_pos = 0
        while head_pos < len(queue) and sink not in parent_arc:
            u = queue[head_pos]
            head_pos += 1
            for i in adjacency[u]:
                v = heads[i]
                if v not in parent_arc and residual(i) > 0:
                    parent_arc[v] = i
                    queue.append(v)
        if sink not in parent_arc:
            break
        path = []
        node = sink
        while parent_arc[node] is not None:
            arc = parent_arc[node]
            path.append(arc)
            node = heads[arc ^ 1]
        bottleneck = INF
        for i in path:
            r = residual(i)
            if r < bottleneck:
                bottleneck = r
        if bottleneck is INF:
            return INF, None, INF
        for i in path:
            if caps[i] is not INF:
                flow[i] += bottleneck
            flow[i ^ 1] -= bottleneck
        value = value + bottleneck

    reach = {source}
    queue = [source]
    while queue:
        u = queue.pop()
        for i in adjacency[u]:
            v = heads[i]
            if v not in reach and residual(i) > 0:
                reach.add(v)
                queue.append(v)
    cut_value = 0
    for i in range(0, len(caps), 2):
        if heads[i ^ 1] in reach and heads[i] not in reach:
            cut_value = cut_value + caps[i]
    if cut_value != value:
        raise RuntimeError("max-flow / min-cut duality violated")
    return value, frozenset(reach), cut_value


def dinic(network, source: int, sink: int):
    """Exact max flow by Dinic's algorithm, deterministic arc order; the
    loop `solver.max_flow` ran before its search trees.

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
    node_count = len(adjacency)
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
        if heads[i ^ 1] in reach and heads[i] not in reach:
            cut_value = cut_value + caps[i]
    if cut_value != value:
        raise RuntimeError("max-flow / min-cut duality violated")
    return value, reach, cut_value


# ------------------------------------------------------ test-only helpers


def join_of(pair, a: int, b: int) -> int:
    return pair.join[a * pair.domain_size + b]


def base_view(f: CostFunction) -> BinaryView:
    if f.arity != 2:
        raise InputError(f"{f.name}: base views require a binary function")
    return BinaryView(table=f, provenance=("base", f.name))


def symmetrize(f: CostFunction) -> BinaryView:
    """The library's symmetrize applied to a binary function's base view."""
    if f.arity != 2:
        raise InputError(f"{f.name}: symmetrize requires a binary function")
    return symmetrize_view(base_view(f))


def is_conservative(pair) -> bool:
    d = pair.domain_size
    return all(
        {pair.meet_of(a, b), join_of(pair, a, b)} == {a, b}
        for a in range(d)
        for b in range(d)
    )


def is_idempotent(pair) -> bool:
    return all(
        pair.meet_of(a, a) == a and join_of(pair, a, a) == a
        for a in range(pair.domain_size)
    )


def commutative_on(pair, nodes) -> bool:
    return all(
        pair.meet_of(a, b) == pair.meet_of(b, a)
        and join_of(pair, a, b) == join_of(pair, b, a)
        for a, b in nodes
    )


def witness_block(witness) -> tuple:
    """The normalized witness's 2x2 block at its pair node (a, b):
    (h(a,a), h(a,b), h(b,a), h(b,b))."""
    a, b = witness.pair_node
    t = witness.normalized.table
    return (t.value((a, a)), t.value((a, b)), t.value((b, a)), t.value((b, b)))


def as_instance(provenance: tuple, lang: Language) -> VcspInstance:
    """Replay a derivation as an explicit instance over language functions.

    Nodes 0 and 1 are the view's two arguments; all further nodes are
    auxiliary.  Minimizing the instance cost over the auxiliary nodes must
    reproduce the view's table entry for every (x, y); the pool soundness
    check does exactly that with the brute-force evaluator.
    """
    d = lang.domain_size
    terms, n_nodes = _instance_terms(provenance, lang, d)
    return VcspInstance(node_count=n_nodes, terms=tuple(terms))


def _unary(name: str, d: int, zero_at, penalty) -> CostFunction:
    if isinstance(zero_at, int):
        zero_at = (zero_at,)
    table = tuple(0 if x in zero_at else penalty for x in range(d))
    return CostFunction(name, 1, d, table)


def _instance_terms(prov: tuple, lang: Language, d: int):
    kind = prov[0]
    if kind == "base":
        f = lang.get(prov[1])
        return [(f, (0, 1))], 2
    if kind == "project_min":
        f = lang.get(prov[1])
        i, j = prov[2]
        scope, nxt = [], 2
        for c in range(f.arity):
            if c == i:
                scope.append(0)
            elif c == j:
                scope.append(1)
            else:
                scope.append(nxt)
                nxt += 1
        return [(f, tuple(scope))], nxt
    if kind == "pin_project":
        f = lang.get(prov[1])
        pins = prov[2]
        i, j = prov[3]
        aux = {}
        nxt = 2
        for coord, _, _ in pins:
            aux[coord] = nxt
            nxt += 1
        scope = []
        for c in range(f.arity):
            if c == i:
                scope.append(0)
            elif c == j:
                scope.append(1)
            else:
                scope.append(aux[c])
        terms = [(f, tuple(scope))]
        for coord, value, C in pins:
            terms.append((_unary(f"pin{coord}", d, value, C), (aux[coord],)))
        return terms, nxt
    if kind == "transpose":
        terms, n = _instance_terms(prov[1], lang, d)
        swap = {0: 1, 1: 0}
        return [(f, tuple(swap.get(v, v) for v in s)) for f, s in terms], n
    if kind == "symmetrize":
        t1, n1 = _instance_terms(prov[1], lang, d)
        t2, n2 = _instance_terms(prov[1], lang, d)
        remap = {0: 1, 1: 0}
        shifted = [
            (f, tuple(remap.get(v, v + n1 - 2) for v in s)) for f, s in t2
        ]
        return t1 + shifted, n1 + n2 - 2
    if kind == "add_unaries":
        terms, n = _instance_terms(prov[1], lang, d)
        u1, u2 = prov[2], prov[3]
        terms = list(terms)
        terms.append((CostFunction("u1", 1, d, u1), (0,)))
        terms.append((CostFunction("u2", 1, d, u2), (1,)))
        return terms, n
    if kind == "min_chain":
        left, right = prov[1], prov[2]
        (a2, b2), C = prov[3], prov[4]
        tl, nl = _instance_terms(left, lang, d)
        tr, nr = _instance_terms(right, lang, d)
        mid = nl  # first fresh node after the left sub-instance
        left_terms = [(f, tuple(mid if v == 1 else v for v in s)) for f, s in tl]
        remap_right = {0: mid, 1: 1}
        right_terms = [
            (f, tuple(remap_right.get(v, v + nl - 1) for v in s)) for f, s in tr
        ]
        terms = left_terms + right_terms
        terms.append((_unary("mid", d, (a2, b2), C), (mid,)))
        return terms, nl + nr - 1
    raise ValueError(f"provenance kind {prov[0]!r} cannot be replayed as an instance")


def serialize_language(lang) -> dict:
    return {
        "domain": lang.domain_size,
        "functions": [
            {
                "name": f.name,
                "arity": f.arity,
                "table": [cost_to_json(v) for v in f.table],
            }
            for f in lang.functions
        ],
    }


# ------------------------------------------ model and solver helpers
#
# Library code that only tests called: language diagnostics, the cost
# shift and fixed-value unary the invariance tests build languages from,
# and the min/max submodularity scan that the solver now does with the
# classifier's multimorphism check.


@dataclass(frozen=True)
class LanguageReport:
    """Report-only diagnostics for a language; never raises."""

    mode: str
    issues: tuple
    dom_summary: tuple  # (name, finite entry count, table size) per function

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_language(lang: Language) -> LanguageReport:
    issues = []
    summary = []
    for f in lang.functions:
        size = f.domain_size ** f.arity
        finite = sum(1 for v in f.table if v is not INF)
        if finite == 0:
            issues.append(f"{f.name}: empty effective domain (all entries infinite)")
        summary.append((f.name, finite, size))
    return LanguageReport(mode=lang.mode, issues=tuple(issues), dom_summary=tuple(summary))


def shift_costs(f: CostFunction, delta) -> CostFunction:
    """Add an exact constant to every finite entry; infinite entries unchanged.

    Strict-inequality structure between entries is preserved, so the
    classification of any language containing the result is unchanged.
    """
    if not isinstance(delta, (int, Fraction)):
        raise InputError("shift delta must be an exact rational")
    shifted = []
    for v in f.table:
        if v is INF:
            shifted.append(INF)
            continue
        nv = v + delta
        if nv < 0:
            raise InputError(f"{f.name}: shifting {v} by {delta} gives a negative cost")
        shifted.append(nv)
    return CostFunction(f"{f.name}_shift", f.arity, f.domain_size, tuple(shifted))


def fixed_value_unary(d: int, c, domain_size: int) -> CostFunction:
    """The unary that is 0 at label d and a fixed non-zero cost c elsewhere."""
    if not 0 <= d < domain_size:
        raise InputError(f"label {d} outside domain 0..{domain_size - 1}")
    c = as_cost(c)
    if c is INF or c == 0:
        raise InputError("fixed-value cost must be finite and non-zero")
    table = tuple(0 if x == d else c for x in range(domain_size))
    return CostFunction(f"u_{d}", 1, domain_size, table)


def sum_finite(f: CostFunction):
    return sum(v for v in f.table if v is not INF)


def submodularity_violation(f: CostFunction, order: tuple):
    """First quadruple where min/max under the order fails, or None."""
    if f.arity != 2:
        raise InputError(f"{f.name}: submodularity check is for binary tables")
    d = f.domain_size
    rank = {label: i for i, label in enumerate(order)}
    t = f.table
    for x1 in range(d):
        for x2 in range(d):
            for y1 in range(d):
                for y2 in range(d):
                    lo1, hi1 = (x1, y1) if rank[x1] <= rank[y1] else (y1, x1)
                    lo2, hi2 = (x2, y2) if rank[x2] <= rank[y2] else (y2, x2)
                    lhs = t[lo1 * d + lo2] + t[hi1 * d + hi2]
                    rhs = t[x1 * d + x2] + t[y1 * d + y2]
                    if lhs > rhs:
                        return ((x1, x2), (y1, y2))
    return None


# ------------------------------------------------ hardness witness oracle


def old_normalize_witness(view: BinaryView, a: int, b: int):
    """The normalization that refused a one-infinite witness whose finite
    block is not flat; None where it raised."""
    hit, soft = _exchange_violation(view, (a, b, a, b))
    if not hit or not soft:
        raise InputError(f"view is not a soft self-loop witness at ({a}, {b})")
    g = view if _is_symmetric(view) else symmetrize_view(view)
    d = g.domain_size
    gaa, gbb, gab = g.value(a, a), g.value(b, b), g.value(a, b)
    if gaa is not INF and gbb is not INF:
        if gaa == gbb:
            h = g
        else:
            cheap = a if gaa < gbb else b
            u = [0] * d
            u[cheap] = Fraction(abs(gbb - gaa), 2)
            h = add_unaries_view(g, u, u)
        return HardnessWitness((a, b), view, "both_finite", h)
    s, t = (a, b) if gbb is INF else (b, a)
    if g.value(s, s) != gab:
        return None
    h = g
    if d > 2:
        pen = [0 if z in (s, t) else gab + 1 for z in range(d)]
        h = add_unaries_view(h, pen, pen)
    if gab != 0:
        h = shift_view(h, -gab)
    return HardnessWitness((s, t), view, "one_infinite", h)


def old_witness_from_loop(pool_views, node: tuple):
    """The first pool view at a node that the old normalization accepted."""
    a, b = node
    for view in pool_views:
        if view.penalty_leaked:
            continue
        hit, soft = _exchange_violation(view, (a, b, a, b))
        if hit and soft:
            witness = old_normalize_witness(view, a, b)
            if witness is not None:
                return witness
    return None


def old_reduction_witness(cls, kind: str):
    """The witness the reduce command chose before every soft self-loop
    normalized: the classification's witness, else another view at its
    node, then a rescan of every looped node when the kind differs."""
    wanted = {"maxcut": "both_finite", "mis": "one_infinite"}.get(kind)
    witness = old_normalize_witness(cls.witness.view, *cls.witness.node)
    if witness is None:
        witness = old_witness_from_loop(cls.graph.pool.views, cls.witness.node)
    if witness is not None and wanted is not None and witness.kind != wanted:
        witness = None
        for node in cls.graph.m_bar:
            cand = old_witness_from_loop(cls.graph.pool.views, node)
            if cand is not None and cand.kind == wanted:
                witness = cand
                break
    return witness


# ------------------------------------------------ pool and detection oracle
#
# The pool as it was built before the batched chain stage and the
# one-pass pins: every candidate is built as a named view before the
# duplicate check, each middle pair is chained in O(d^3), and each pinned
# slice is pinned three times (once for its table, twice for its leak).
# Detection is the full scan of every view and quadruple.


def pin_penalty(f: CostFunction):
    """Finite penalty large enough to dominate every finite entry of f."""
    return 1 + sum_finite(f)


def pin_coordinate(f: CostFunction, coord: int, value: int) -> CostFunction:
    """Fix one argument of f to `value` through a steep finite unary.

    result(z) = min_a { u(a) + f(..a..z..) } with u(value) = 0 and u(a) = C
    otherwise.  Whenever f(value, z) is finite this equals f(value, z); if
    that entry is infinite the penalty can leak through (see pin_leaks).
    """
    if not (0 <= coord < f.arity):
        raise InputError(f"{f.name}: pin coordinate {coord} out of range")
    if not (0 <= value < f.domain_size):
        raise InputError(f"{f.name}: pin value {value} outside the domain")
    C = pin_penalty(f)
    d = f.domain_size
    rest_arity = f.arity - 1
    best = [INF] * (d ** rest_arity)
    for args, v in zip(f.tuples(), f.table):
        if v is INF:
            continue
        penalty = 0 if args[coord] == value else C
        rest = args[:coord] + args[coord + 1 :]
        idx = 0
        for a in rest:
            idx = idx * d + a
        cand = v + penalty
        if cand < best[idx]:
            best[idx] = cand
    return CostFunction(f"{f.name}_pin{coord}={value}", rest_arity, d, tuple(best))


def pin_leaks(f: CostFunction, coord: int, value: int) -> bool:
    """True when pinning differs from the exact restriction f(.., value, ..)."""
    pinned = pin_coordinate(f, coord, value)
    for args, v in zip(pinned.tuples(), pinned.table):
        full = args[:coord] + (value,) + args[coord:]
        if v != f.value(full):
            return True
    return False


def project_min(f: CostFunction, keep: tuple) -> BinaryView:
    """Minimize f over every coordinate except the ordered pair `keep`."""
    if f.arity < 2:
        raise InputError(f"{f.name}: projection requires arity >= 2")
    i, j = keep
    if i == j or not (0 <= i < f.arity and 0 <= j < f.arity):
        raise InputError(f"{f.name}: invalid projection pair {keep}")
    d = f.domain_size
    best = {}
    for args, v in zip(f.tuples(), f.table):
        key = (args[i], args[j])
        cur = best.get(key, INF)
        if v < cur:
            best[key] = v
    entries = [best.get((x, y), INF) for x in range(d) for y in range(d)]
    prov = ("project_min", f.name, (i, j))
    return BinaryView(table=_binary(_prov_name(prov), d, entries), provenance=prov)


def _old_symmetrize(view: BinaryView) -> BinaryView:
    f = view.table
    d = f.domain_size
    entries = [f.table[x * d + y] + f.table[y * d + x] for x in range(d) for y in range(d)]
    prov = ("symmetrize", view.provenance)
    return BinaryView(
        table=_binary(_prov_name(prov), d, entries),
        provenance=prov,
        penalty_leaked=view.penalty_leaked,
    )


def old_min_chain(f: BinaryView, g: BinaryView, mid_pair: tuple) -> BinaryView:
    """h(x, z) = min_y { f(x, y) + u(y) + g(y, z) } with u zero on mid_pair."""
    d = f.domain_size
    a2, b2 = mid_pair
    C = 1 + f.table.max_finite() + g.table.max_finite()
    ft, gt = f.table.table, g.table.table
    entries = []
    for x in range(d):
        for z in range(d):
            best = INF
            for y in range(d):
                v = ft[x * d + y] + gt[y * d + z]
                if v is INF:
                    continue
                if y != a2 and y != b2:
                    v = v + C
                if v < best:
                    best = v
            entries.append(best)
    prov = ("min_chain", f.provenance, g.provenance, (a2, b2), C)
    return BinaryView(
        table=_binary(_prov_name(prov), d, entries),
        provenance=prov,
        penalty_leaked=f.penalty_leaked or g.penalty_leaked,
    )


def _pin_to_binary(f: CostFunction, keep: tuple, pinned: dict):
    """Pin every non-kept coordinate, then order the two kept ones."""
    i, j = keep
    pins = []
    g = f
    # pin from the highest coordinate down so earlier indices stay put
    for coord in sorted(pinned, reverse=True):
        value = pinned[coord]
        pins.append((coord, value, pin_penalty(g)))
        g = pin_coordinate(g, coord, value)
    # after pinning, remaining coordinates are (min(i,j), max(i,j)) in order
    d = f.domain_size
    if i > j:
        entries = [g.table[y * d + x] for x in range(d) for y in range(d)]
    else:
        entries = list(g.table)
    prov = ("pin_project", f.name, tuple(reversed(pins)), (i, j))
    return prov, entries


def _pin_project_view(f: CostFunction, keep: tuple, pinned: dict) -> BinaryView:
    prov, entries = _pin_to_binary(f, keep, pinned)
    # a pin leaks when some pinned slice is infinite but another label is not
    leaked = False
    g = f
    for coord in sorted(pinned, reverse=True):
        if pin_leaks(g, coord, pinned[coord]):
            leaked = True
        g = pin_coordinate(g, coord, pinned[coord])
    return BinaryView(
        table=_binary(_prov_name(prov), f.domain_size, entries),
        provenance=prov,
        penalty_leaked=leaked,
    )


def enumerate_binary_pool(lang: Language, budget: PoolBudget = PoolBudget()) -> Pool:
    """The pool before batching: same stages, order, names and budget."""
    views: list = []
    seen: set = set()
    truncated = False

    def add(view: BinaryView) -> bool:
        nonlocal truncated
        key = view.table.table
        if key in seen:
            return True
        if len(views) >= budget.max_views:
            truncated = True
            return False
        seen.add(key)
        views.append(view)
        return True

    full = True
    for f in lang.functions:
        if f.arity == 2:
            full = add(base_view(f))
            if not full:
                break
    if full:
        for f in lang.functions:
            if f.arity < 2:
                continue
            for keep in itertools.permutations(range(f.arity), 2):
                full = add(project_min(f, keep))
                if not full:
                    break
            if not full:
                break
    if full:
        for f in lang.functions:
            if f.arity < 3:
                continue
            for keep in itertools.permutations(range(f.arity), 2):
                rest = [c for c in range(f.arity) if c not in keep]
                for values in itertools.product(range(f.domain_size), repeat=len(rest)):
                    full = add(_pin_project_view(f, keep, dict(zip(rest, values))))
                    if not full:
                        break
                if not full:
                    break
            if not full:
                break
    if full:
        for view in list(views):
            full = add(_old_symmetrize(view))
            if not full:
                break
    for _ in range(budget.chain_depth):
        if not full:
            break
        snapshot = list(views)
        d = lang.domain_size
        mids = [(a, b) for a in range(d) for b in range(d) if a != b]
        for left, right in itertools.product(snapshot, repeat=2):
            for mid in mids:
                full = add(old_min_chain(left, right, mid))
                if not full:
                    break
            if not full:
                break
    return Pool(views=tuple(views), truncated=truncated)


def detect_edges(views, domain_size: int) -> list:
    """Scan every view and quadruple; merge duplicates keeping soft over hard."""
    found: dict = {}
    pairs = all_pair_nodes(domain_size)
    for view in views:
        if view.domain_size != domain_size:
            raise ValueError(f"view {view.table.name} has a mismatched domain size")
        for p in pairs:
            for q in pairs:
                quad = (p[0], p[1], q[0], q[1])
                hit, soft = _exchange_violation(view, quad)
                if not hit:
                    continue
                key = _edge_key(p, q)
                existing = found.get(key)
                if existing is None or (soft and not existing.soft):
                    found[key] = PairEdge(key, soft, view, quad)
    return [found[k] for k in sorted(found)]
