"""NP-hardness gadget reductions from a soft self-loop witness.

Every soft self-loop at pair (a, b) yields, after symmetrization and unary
levelling, a binary h with equal diagonal entries strictly above equal
off-diagonal entries (both finite), or the crisp variant with three zero
entries and an infinite corner.  The unaries are finite, and a conservative
language expresses every finite unary, so normalization cannot fail.  The
first form encodes max-cut, the second maximum independent set; each
reduction ships an explicit affine decoder so correctness can be replayed
bit-exactly against combinatorial brute force.
"""

from __future__ import annotations

from fractions import Fraction

from .model import (
    DEFAULT_BRUTE_BUDGET,
    INF,
    MAX_NODES,
    CostFunction,
    InputError,
    Record,
    VcspInstance,
    _set,
    is_finite,
)
from .express import BinaryView, add_unaries_view, shift_view, symmetrize
from .pairgraph import _exchange_violation
from .solver import brute_force


def _is_symmetric(view: BinaryView) -> bool:
    d = view.domain_size
    t = view.table.table
    return all(t[x * d + y] == t[y * d + x] for x in range(d) for y in range(x + 1, d))


class SourceGraph(Record):
    """A simple graph; its edges are stored sorted, as (u, v) with u < v.
    Its vertices become the nodes of a reduced instance, so it has at most
    `model.MAX_NODES` of them, checked before any reduction builds a term."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: tuple):
        if vertex_count > MAX_NODES:
            raise InputError(f"{vertex_count} vertices exceed the limit of {MAX_NODES}")
        seen = set()
        norm = []
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop {u} not allowed in a source graph")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InputError(f"edge ({u}, {v}) outside vertex range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        _set(self, "vertex_count", vertex_count)
        _set(self, "edges", tuple(sorted(norm)))


class HardnessWitness(Record):
    __slots__ = ("pair_node", "view", "kind", "normalized")  # kind: "both_finite" | "one_infinite"

    def __init__(self, pair_node: tuple, view: BinaryView, kind: str, normalized: BinaryView):
        _set(self, "pair_node", pair_node)
        _set(self, "view", view)
        _set(self, "kind", kind)
        _set(self, "normalized", normalized)


class Decoder(Record):
    """decoded = (offset - optimum) / slope, exactly."""

    __slots__ = ("kind", "offset", "slope")

    def __init__(self, kind: str, offset, slope):
        _set(self, "kind", kind)
        _set(self, "offset", offset)
        _set(self, "slope", slope)

    def decode(self, optimum):
        if optimum is INF:
            raise InputError("cannot decode an infeasible optimum")
        return Fraction(self.offset - optimum) / Fraction(self.slope)


def normalize_witness(view: BinaryView, a: int, b: int) -> HardnessWitness:
    """Canonicalize a soft self-loop witness at pair (a, b).

    Both-diagonals-finite: symmetrize, then equalize the diagonals with a
    half-gap unary on the cheaper label.  One-diagonal-infinite: orient the
    infinite corner (t, t) second, level the finite block with a unary that
    lifts the cheaper of g(s, s) and g(s, t) to the other, put every other
    label above that level, then shift the block to zero.  A flat block
    gets no levelling unary.
    """
    hit, soft = _exchange_violation(view, (a, b, a, b))
    if not hit or not soft:
        raise InputError(f"view is not a soft self-loop witness at ({a}, {b})")
    g = view if _is_symmetric(view) else symmetrize(view)
    d = g.domain_size
    gaa, gbb, gab = g.value(a, a), g.value(b, b), g.value(a, b)
    if is_finite(gaa) and is_finite(gbb):
        if gaa == gbb:
            h = g
        else:
            cheap = a if gaa < gbb else b
            correction = Fraction(abs(gbb - gaa), 2)
            u = [0] * d
            u[cheap] = correction
            h = add_unaries_view(g, u, u)
        haa, hab = h.value(a, a), h.value(a, b)
        if not (haa == h.value(b, b) and hab == h.value(b, a) and haa > hab):
            raise RuntimeError(f"balanced witness at ({a}, {b}) is not symmetric and strict")
        return HardnessWitness((a, b), view, "both_finite", h)
    # exactly one diagonal is infinite: put it at the second label
    s, t = (a, b) if gbb is INF else (b, a)
    gap = gab - g.value(s, s)
    level = gab + abs(gap)
    u = [level + 1] * d
    u[s], u[t] = max(gap, 0), max(-gap, 0)
    h = add_unaries_view(g, u, u) if any(u) else g
    if level != 0:
        h = shift_view(h, -level)
    if not (h.value(s, s) == h.value(s, t) == h.value(t, s) == 0 and h.value(t, t) is INF):
        raise RuntimeError(f"normalized witness at ({s}, {t}) is not 0 off ({t}, {t}) and inf on it")
    return HardnessWitness((s, t), view, "one_infinite", h)


def witness_from_loop(pool_views, node: tuple, kind: str):
    """The first pool view that is a soft self-loop witness of the given
    kind at a node, normalized, or None.  Symmetrizing keeps a diagonal
    entry finite or infinite, so the kind is read off the view first and
    only a view of that kind is normalized."""
    a, b = node
    both_finite = kind == "both_finite"
    for view in pool_views:
        if view.penalty_leaked:
            continue
        if (is_finite(view.value(a, a)) and is_finite(view.value(b, b))) != both_finite:
            continue
        hit, soft = _exchange_violation(view, (a, b, a, b))
        if hit and soft:
            return normalize_witness(view, a, b)
    return None


def _restriction_unary(name: str, d: int, keep: tuple, penalty) -> CostFunction:
    return CostFunction(name, 1, d, tuple(0 if z in keep else penalty for z in range(d)))


def reduce_maxcut(src: SourceGraph, witness: HardnessWitness):
    """One node per vertex, the normalized h per edge; cut size decodes affinely.

    Within the two witness labels each uncut edge pays the diagonal value and
    each cut edge the (smaller) off-diagonal value, so the optimum is
    |E| * h(a,a) - maxcut * (h(a,a) - h(a,b)).  A finite steep unary keeps
    every node on the two labels.
    """
    if witness.kind != "both_finite":
        raise InputError("max-cut reduction needs a both-finite witness")
    a, b = witness.pair_node
    h = witness.normalized.table
    haa, hab = h.value((a, a)), h.value((a, b))
    if not (haa == h.value((b, b)) and hab == h.value((b, a)) and haa > hab):
        raise InputError("witness is not in normalized max-cut form")
    d = h.domain_size
    n_edges = len(src.edges)
    penalty = 1 + n_edges * haa
    restrict = _restriction_unary("keep_ab", d, (a, b), penalty)
    terms = [(h, (u, v)) for u, v in src.edges]
    terms.extend((restrict, (v,)) for v in range(src.vertex_count))
    instance = VcspInstance(node_count=src.vertex_count, terms=tuple(terms))
    decoder = Decoder(kind="maxcut", offset=n_edges * haa, slope=haa - hab)
    return instance, decoder


def reduce_mis(src: SourceGraph, witness: HardnessWitness):
    """Independent-set gadget: the infinite corner forbids adjacent picks.

    Each vertex pays 1 unless assigned the second witness label; edge terms
    cost nothing on the zero block, so the optimum is n - mis.
    """
    if witness.kind != "one_infinite":
        raise InputError("independent-set reduction needs a one-infinite witness")
    s, t = witness.pair_node
    h = witness.normalized.table
    if not (
        h.value((s, s)) == h.value((s, t)) == h.value((t, s)) == 0
        and h.value((t, t)) is INF
    ):
        raise InputError("witness is not in normalized independent-set form")
    d = h.domain_size
    n = src.vertex_count
    penalty = 1 + n
    unary = [penalty] * d
    unary[s], unary[t] = 1, 0
    choose = CostFunction("prefer_in_set", 1, d, tuple(unary))
    terms = [(h, (u, v)) for u, v in src.edges]
    terms.extend((choose, (v,)) for v in range(n))
    instance = VcspInstance(node_count=n, terms=tuple(terms))
    decoder = Decoder(kind="mis", offset=n, slope=1)
    return instance, decoder


class ReductionMismatch(Record):
    __slots__ = ("expected", "decoded", "optimum")

    def __init__(self, expected, decoded, optimum):
        _set(self, "expected", expected)
        _set(self, "decoded", decoded)
        _set(self, "optimum", optimum)


def require_verifiable(vertex_count: int, domain_size: int) -> None:
    """Raise unless exact verification covers the source graph: at most 16
    vertices, with domain_size ** vertex_count assignments of the reduced
    instance within the exact-enumeration budget."""
    limit = 16
    while domain_size**limit > DEFAULT_BRUTE_BUDGET:
        limit -= 1
    if vertex_count > limit:
        raise InputError(
            f"exact verification at domain size {domain_size} covers at most {limit} vertices (16 "
            f"at most, with {domain_size}^n assignments within {DEFAULT_BRUTE_BUDGET}), got {vertex_count}"
        )


def verify_reduction(src: SourceGraph, reduced: VcspInstance, decoder: Decoder, reference):
    """Compare the decoded optimum against an exact combinatorial reference."""
    if src.vertex_count:  # an empty graph reduces to an instance with no terms
        require_verifiable(src.vertex_count, reduced.domain_size())
    expected = reference(src)
    result = brute_force(reduced)
    decoded = decoder.decode(result.cost)
    if decoded != expected:
        return ReductionMismatch(expected=expected, decoded=decoded, optimum=result.cost)
    return None


def exact_max_cut(src: SourceGraph) -> int:
    best = 0
    for mask in range(1 << src.vertex_count):
        cut = sum(1 for u, v in src.edges if ((mask >> u) ^ (mask >> v)) & 1)
        if cut > best:
            best = cut
    return best


def exact_max_independent_set(src: SourceGraph) -> int:
    best = 0
    adj_masks = [0] * src.vertex_count
    for u, v in src.edges:
        adj_masks[u] |= 1 << v
        adj_masks[v] |= 1 << u
    for mask in range(1 << src.vertex_count):
        ok = True
        for v in range(src.vertex_count):
            if (mask >> v) & 1 and adj_masks[v] & mask:
                ok = False
                break
        if ok:
            size = mask.bit_count()
            if size > best:
                best = size
    return best
