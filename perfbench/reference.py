"""Reference computations made apart from cvcsp.

Nothing here imports the package: every check works on the JSON documents
the benchmark writes and the JSON reports the CLI prints, with its own cost
parsing, index arithmetic and enumeration.  Costs stay exact: tables are
scaled to integers by the least common denominator of their entries, and
infinity is a separate mask, never a float.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

INF = None  # an infinite cost, as returned by parse_cost


def parse_cost(value):
    """A JSON cost (int, "p/q" or "inf") as a Fraction, or INF."""
    if value == "inf":
        return INF
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den or 1))
    return Fraction(value)


def parse_table(entries) -> list:
    return [parse_cost(v) for v in entries]


def _scale_of(tables) -> int:
    scale = 1
    for table in tables:
        for v in table:
            if v is not INF:
                scale = math.lcm(scale, v.denominator)
    return scale


def _scaled(table, scale: int):
    """(finite values as int64, infinity mask) of one parsed table."""
    inf = np.array([v is INF for v in table], dtype=bool)
    vals = np.array([0 if v is INF else int(v * scale) for v in table], dtype=np.int64)
    return vals, inf


def _digits(d: int, m: int) -> np.ndarray:
    """Every tuple of D^m, row-major (last coordinate fastest), as an array."""
    if m == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(itertools.product(range(d), repeat=m)), dtype=np.int64)


def _weights(d: int, m: int) -> np.ndarray:
    return d ** np.arange(m - 1, -1, -1, dtype=np.int64)


# ------------------------------------------------------------ multimorphisms


def violated_candidates(meets: np.ndarray, joins: np.ndarray, d: int, arity: int, table) -> np.ndarray:
    """For K candidate pairs (K x d*d meet and join tables), which fail on f.

    A pair fails when f(meet(x, y)) + f(join(x, y)) > f(x) + f(y) for some
    finite-cost tuples x and y, componentwise.
    """
    vals, inf = _scaled(table, _scale_of([table]))
    fin = np.flatnonzero(~inf)
    if fin.size == 0:
        return np.zeros(meets.shape[0], dtype=bool)
    tuples = _digits(d, arity)[fin]
    xi, yi = np.divmod(np.arange(fin.size * fin.size), fin.size)
    code = tuples[xi] * d + tuples[yi]  # (P, arity) label-pair codes
    w = _weights(d, arity)
    mi = (meets[:, code] * w).sum(axis=-1)
    ji = (joins[:, code] * w).sum(axis=-1)
    big = 2 * int(vals.max()) + 1  # above every finite right-hand side
    v = np.where(inf, big, vals)
    lhs = v[mi] + v[ji]
    rhs = vals[fin][xi] + vals[fin][yi]
    return (lhs > rhs).any(axis=1)


def is_conservative_commutative(meet, join, d: int) -> bool:
    for a in range(d):
        for b in range(d):
            if {meet[a * d + b], join[a * d + b]} != {a, b}:
                return False
            if meet[a * d + b] != meet[b * d + a] or join[a * d + b] != join[b * d + a]:
                return False
    return True


def is_multimorphism(meet, join, d: int, functions) -> bool:
    """functions: (arity, parsed table) pairs."""
    m = np.array([meet], dtype=np.int64)
    j = np.array([join], dtype=np.int64)
    return not any(violated_candidates(m, j, d, a, t)[0] for a, t in functions)


def min_max_tables(order, d: int):
    rank = {label: i for i, label in enumerate(order)}
    meet = [a if rank[a] <= rank[b] else b for a in range(d) for b in range(d)]
    join = [b if rank[a] <= rank[b] else a for a in range(d) for b in range(d)]
    return meet, join


def all_commutative_pairs(d: int):
    """Every conservative commutative pair, as K x d*d meet and join arrays."""
    unordered = [(a, b) for a in range(d) for b in range(a + 1, d)]
    k = 1 << len(unordered)
    meets = np.tile(np.arange(d), (k, d))  # meet(a, a) = a; overwritten off-diagonal
    joins = meets.copy()
    for pos, (a, b) in enumerate(unordered):
        a_low = ((np.arange(k) >> pos) & 1) == 0
        lo = np.where(a_low, a, b)
        hi = np.where(a_low, b, a)
        for x, y in ((a, b), (b, a)):
            meets[:, x * d + y] = lo
            joins[:, x * d + y] = hi
    return meets, joins


def stp_exists_exhaustive(d: int, functions) -> bool:
    """Try every conservative commutative pair (2^C(d,2) of them)."""
    meets, joins = all_commutative_pairs(d)
    bad = np.zeros(meets.shape[0], dtype=bool)
    for arity, table in functions:
        if arity >= 2:
            bad |= violated_candidates(meets, joins, d, arity, table)
    return not bad.all()


def stp_exists_binary(d: int, functions) -> bool:
    """The tournament-pair question for binary languages as parity constraints.

    With x = (a, c) and y = (b, e), a != b, c != e, the pair maps {x, y} to
    itself unless it picks the meet from x in one coordinate and from y in
    the other, and then the left side is f(a, e) + f(b, c) either way.  So a
    strict violation f(a, e) + f(b, c) > f(a, c) + f(b, e) on finite f(a, c),
    f(b, e) forces "a is the meet of {a, b}" to equal "c is the meet of
    {c, e}".  A pair exists exactly when these equalities are consistent,
    which a union-find with parities decides.
    """
    var = {}
    for a in range(d):
        for b in range(a + 1, d):
            var[(a, b)] = var[(b, a)] = len(var) // 2
    parent = list(range(len(var) // 2))
    parity = [0] * len(parent)  # parity to the parent

    def find(i):
        p = 0
        while parent[i] != i:
            p ^= parity[i]
            i = parent[i]
        return i, p

    a, b, c, e = (x.ravel() for x in np.meshgrid(*[np.arange(d)] * 4, indexing="ij"))
    keep = (a != b) & (c != e)
    a, b, c, e = a[keep], b[keep], c[keep], e[keep]
    for arity, table in functions:
        if arity == 1:
            continue
        if arity != 2:
            raise ValueError("the parity oracle covers binary functions only")
        vals, inf = _scaled(table, _scale_of([table]))
        big = 2 * int(vals.max()) + 1
        v = np.where(inf, big, vals)
        rhs_finite = ~inf[a * d + c] & ~inf[b * d + e]
        lhs = v[a * d + e] + v[b * d + c]
        hit = rhs_finite & (lhs > vals[a * d + c] + vals[b * d + e])
        for qa, qb, qc, qe in zip(a[hit], b[hit], c[hit], e[hit]):
            # s(p) = 1 when the smaller label of p is its meet; "qa is the
            # meet" is s(qa, qb) xor (qa > qb)
            want = int(qa > qb) ^ int(qc > qe)
            ru, pu = find(var[(int(qa), int(qb))])
            rw, pw = find(var[(int(qc), int(qe))])
            if ru == rw:
                if pu ^ pw != want:
                    return False
            else:
                parent[ru] = rw
                parity[ru] = pu ^ pw ^ want
    return True


def stp_exists(d: int, functions) -> bool:
    """Does the language admit a conservative commutative multimorphism pair?"""
    if all(arity <= 2 for arity, _ in functions):
        return stp_exists_binary(d, functions)
    if d > 4:
        raise ValueError("exhaustive pair enumeration is limited to domain 4")
    return stp_exists_exhaustive(d, functions)


def soft_exchange_violation(d: int, table, a: int, b: int) -> bool:
    """Strict soft exchange violation of a binary table at the node (a, b)."""
    t = lambda x, y: table[x * d + y]  # noqa: E731
    cross = (t(a, b), t(b, a))
    diag = (t(a, a), t(b, b))
    if INF in cross or diag == (INF, INF):
        return False
    return INF in diag or diag[0] + diag[1] > cross[0] + cross[1]


# ------------------------------------------------------------------ instances


def evaluate(d: int, terms, assignment):
    """Exact cost of an assignment: terms are (parsed table, scope) pairs."""
    total = Fraction(0)
    for table, scope in terms:
        idx = 0
        for node in scope:
            idx = idx * d + assignment[node]
        v = table[idx]
        if v is INF:
            return INF
        total += v
    return total


def instance_optimum(d: int, n: int, terms):
    """Minimum cost over all d^n assignments, enumerated as one array."""
    scale = _scale_of([t for t, _ in terms])
    labels = _digits(d, n)
    total = np.zeros(labels.shape[0], dtype=np.int64)
    infeasible = np.zeros(labels.shape[0], dtype=bool)
    for table, scope in terms:
        vals, inf = _scaled(table, scale)
        idx = (labels[:, list(scope)] * _weights(d, len(scope))).sum(axis=1)
        total += vals[idx]
        infeasible |= inf[idx]
    if infeasible.all():
        return INF
    return Fraction(int(total[~infeasible].min()), scale)


def grid_l1_optimum(d: int, unaries, edges) -> int:
    """Minimum of sum_v U_v(x_v) + sum_{vw} |x_v - x_w| by a layered min cut.

    Each node owns a chain source -> c_1 -> ... -> c_{d-1} -> sink whose k-th
    arc costs U_v(k) and whose reverse arcs are infinite, so every finite cut
    crosses a chain once and that crossing is the label.  An edge joins the
    level-k nodes of its ends both ways at capacity 1, which charges
    |x_v - x_w|.  Integer unaries only; solved with scipy's max-flow.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    k = d - 1
    node = lambda v, level: 2 + v * k + level - 1  # noqa: E731
    rows, cols, caps = [], [], []

    def arc(u, w, cap):
        rows.append(u)
        cols.append(w)
        caps.append(cap)

    finite = sum(sum(u) for u in unaries) + 2 * k * len(edges)
    big = finite + 1
    for v, u in enumerate(unaries):
        chain = [0] + [node(v, level) for level in range(1, d)] + [1]
        for pos in range(d):
            arc(chain[pos], chain[pos + 1], int(u[pos]))
            if 0 < pos < d - 1:
                arc(chain[pos + 1], chain[pos], big)
    for v, w in edges:
        for level in range(1, d):
            arc(node(v, level), node(w, level), 1)
            arc(node(w, level), node(v, level), 1)
    size = 2 + len(unaries) * k
    if big >= 2**31:
        raise ValueError("capacities exceed the int32 range scipy needs")
    graph = csr_matrix(
        (np.array(caps, dtype=np.int32), (np.array(rows), np.array(cols))),
        shape=(size, size),
    )
    return int(maximum_flow(graph, 0, 1).flow_value)


# --------------------------------------------------------------------- graphs


def max_cut(n: int, edges) -> int:
    masks = np.arange(1 << n, dtype=np.int64)
    cut = np.zeros_like(masks)
    for u, v in edges:
        cut += ((masks >> u) ^ (masks >> v)) & 1
    return int(cut.max())


def max_independent_set(n: int, edges) -> int:
    masks = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(masks.shape, dtype=bool)
    for u, v in edges:
        ok &= ((masks >> u) & (masks >> v) & 1) == 0
    size = np.zeros_like(masks)
    for v in range(n):
        size += (masks >> v) & 1
    return int(size[ok].max())
