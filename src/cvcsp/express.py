"""Constructive sampling of the binary expressive power of a language.

A BinaryView is a binary cost table derived from language functions using
only operations that preserve expressibility: adding terms, adding
finite-valued unaries, and minimizing over auxiliary variables.  The pool of
views is a finite under-approximation of the full expressive power; it is
used to detect pair-graph edges and to supply hardness witnesses.  Every
view records its derivation, so that the tests can replay it as an explicit
instance and re-check it against the brute-force evaluator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    INF,
    CostFunction,
    InputError,
    Language,
    as_cost,
    is_finite,
)


@dataclass(frozen=True)
class BinaryView:
    """A binary member of the language's expressive power, with provenance."""

    table: CostFunction
    provenance: tuple
    penalty_leaked: bool = False
    degenerate: bool = False

    def value(self, x: int, y: int):
        return self.table.table[x * self.table.domain_size + y]

    @property
    def domain_size(self) -> int:
        return self.table.domain_size


@dataclass(frozen=True)
class PoolBudget:
    max_views: int = 64
    chain_depth: int = 1


@dataclass(frozen=True)
class Pool:
    views: tuple
    truncated: bool


def _prov_name(provenance: tuple) -> str:
    kind = provenance[0]
    if kind == "base":
        return provenance[1]
    if kind == "project_min":
        i, j = provenance[2]
        return f"proj({provenance[1]};{i},{j})"
    if kind == "pin_project":
        pins = ";".join(f"{c}={v}" for c, v, _ in provenance[2])
        i, j = provenance[3]
        return f"pin({provenance[1]};{pins};{i},{j})"
    if kind == "symmetrize":
        return f"sym({_prov_name(provenance[1])})"
    if kind == "transpose":
        return f"tr({_prov_name(provenance[1])})"
    if kind == "add_unaries":
        return f"unary+({_prov_name(provenance[1])})"
    if kind == "min_chain":
        a, b = provenance[3]
        return f"chain({_prov_name(provenance[1])},{_prov_name(provenance[2])};{a},{b})"
    if kind == "shift":
        return f"shifted({_prov_name(provenance[1])})"
    raise ValueError(f"unknown provenance kind {kind!r}")


def _binary(name: str, d: int, entries) -> CostFunction:
    return CostFunction(name, 2, d, tuple(entries))


def base_view(f: CostFunction) -> BinaryView:
    if f.arity != 2:
        raise InputError(f"{f.name}: base views require a binary function")
    return BinaryView(table=f, provenance=("base", f.name))


def symmetrize(view) -> BinaryView:
    """g(x, y) = f(x, y) + f(y, x); symmetric by construction."""
    if isinstance(view, CostFunction):
        view = base_view(view)
    f = view.table
    if f.arity != 2:
        raise InputError(f"{f.name}: symmetrize requires a binary function")
    d = f.domain_size
    entries = [f.table[x * d + y] + f.table[y * d + x] for x in range(d) for y in range(d)]
    prov = ("symmetrize", view.provenance)
    return BinaryView(
        table=_binary(_prov_name(prov), d, entries),
        provenance=prov,
        penalty_leaked=view.penalty_leaked,
    )


def transpose_view(view: BinaryView) -> BinaryView:
    f = view.table
    d = f.domain_size
    entries = [f.table[y * d + x] for x in range(d) for y in range(d)]
    prov = ("transpose", view.provenance)
    return BinaryView(
        table=_binary(_prov_name(prov), d, entries),
        provenance=prov,
        penalty_leaked=view.penalty_leaked,
    )


def add_unaries_view(view: BinaryView, u1, u2) -> BinaryView:
    """h(x, y) = f(x, y) + u1(x) + u2(y) for finite unary tables u1, u2."""
    f = view.table
    d = f.domain_size
    u1 = tuple(as_cost(v) for v in u1)
    u2 = tuple(as_cost(v) for v in u2)
    if len(u1) != d or len(u2) != d or not all(map(is_finite, u1 + u2)):
        raise InputError("unary tables must be finite and match the domain size")
    entries = [f.table[x * d + y] + u1[x] + u2[y] for x in range(d) for y in range(d)]
    prov = ("add_unaries", view.provenance, u1, u2)
    return BinaryView(
        table=_binary(_prov_name(prov), d, entries),
        provenance=prov,
        penalty_leaked=view.penalty_leaked,
    )


def shift_view(view: BinaryView, delta) -> BinaryView:
    """Add an exact constant to every finite entry (affine renormalization).

    Shifting leaves every strict inequality between entries intact, so it is
    complexity-preserving; it cannot be replayed as an instance, which is
    why it only appears in witness normalization where the decoder carries
    the offset.
    """
    f = view.table
    entries = []
    for v in f.table:
        if v is INF:
            entries.append(INF)
            continue
        nv = v + delta
        if nv < 0:
            raise InputError(f"shifting {v} by {delta} gives a negative cost")
        entries.append(nv)
    prov = ("shift", view.provenance, delta)
    return BinaryView(
        table=_binary(_prov_name(prov), f.domain_size, entries),
        provenance=prov,
        penalty_leaked=view.penalty_leaked,
    )


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


def pin_penalty(f: CostFunction):
    """Finite penalty large enough to dominate every finite entry of f."""
    return 1 + f.sum_finite()


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
    d = f.domain_size
    for args, v in zip(pinned.tuples(), pinned.table):
        full = args[:coord] + (value,) + args[coord:]
        if v != f.value(full):
            return True
    return False


def min_chain(f: BinaryView, g: BinaryView, mid_pair: tuple) -> BinaryView:
    """h(x, z) = min_y { f(x, y) + u(y) + g(y, z) } with u zero on mid_pair.

    The off-pair penalty is finite but exceeds every finite value the two
    operands can contribute, so only the two middle labels matter unless
    both of their rows are infinite.
    """
    d = f.domain_size
    if g.domain_size != d:
        raise InputError("chained views must share a domain size")
    a2, b2 = mid_pair
    if a2 == b2 or not (0 <= a2 < d and 0 <= b2 < d):
        raise InputError(f"invalid middle pair {mid_pair}")
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
    degenerate = all(v is INF or v >= C for v in entries)
    return BinaryView(
        table=_binary(_prov_name(prov), d, entries),
        provenance=prov,
        penalty_leaked=f.penalty_leaked or g.penalty_leaked,
        degenerate=degenerate,
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
    """Deterministically enumerate binary views of the language.

    Stages: binary members, min-projections, pin-then-project slices,
    symmetrizations, then chain compositions up to the configured depth.
    Views are deduplicated by exact table equality (first derivation wins);
    hitting the view budget truncates the pool and sets the flag.
    """
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
            full = add(symmetrize(view))
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
                full = add(min_chain(left, right, mid))
                if not full:
                    break
            if not full:
                break
    return Pool(views=tuple(views), truncated=truncated)
