"""Constructive sampling of the binary expressive power of a language.

A BinaryView is a binary cost table derived from language functions using
only operations that preserve expressibility: adding terms, adding
finite-valued unaries, and minimizing over auxiliary variables.  The pool of
views is a finite under-approximation of the full expressive power; it is
used to detect pair-graph edges and to supply hardness witnesses.  Every
view records its derivation, so that the tests can replay it as an explicit
instance and re-check it against the brute-force evaluator.

The pool computes each candidate's table first and builds its name,
CostFunction and BinaryView only when the table is new.  The pin stage pins
each (coordinate, value) prefix of a function once, shared by every slice
and keep order that starts with it, and reads in the same pass whether the
penalty leaked.  The chain stage is batched: for each (left, right) operand
pair it sums f(x,y) + g(y,z) once per cell, then reads each middle pair's
table from those sums in O(d^2).  A middle pair and its reverse give the
same table, so only the ordered one is read.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .model import (
    INF,
    CostFunction,
    InputError,
    Language,
    Record,
    _set,
    as_cost,
    is_finite,
)

DEFAULT_MAX_VIEWS = 64
DEFAULT_CHAIN_DEPTH = 1


class BinaryView(Record):
    """A binary member of the language's expressive power, with provenance."""

    __slots__ = ("table", "provenance", "penalty_leaked")

    def __init__(self, table: CostFunction, provenance: tuple, penalty_leaked: bool = False):
        _set(self, "table", table)
        _set(self, "provenance", provenance)
        _set(self, "penalty_leaked", penalty_leaked)

    def value(self, x: int, y: int):
        return self.table.table[x * self.table.domain_size + y]

    @property
    def domain_size(self) -> int:
        return self.table.domain_size


class PoolBudget(Record):
    __slots__ = ("max_views", "chain_depth")

    def __init__(self, max_views: int = DEFAULT_MAX_VIEWS, chain_depth: int = DEFAULT_CHAIN_DEPTH):
        _set(self, "max_views", max_views)
        _set(self, "chain_depth", chain_depth)


class Pool(Record):
    __slots__ = ("views", "truncated")

    def __init__(self, views: tuple, truncated: bool):
        _set(self, "views", views)
        _set(self, "truncated", truncated)


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


def _view(provenance: tuple, d: int, entries, penalty_leaked: bool = False) -> BinaryView:
    return BinaryView(
        table=_binary(_prov_name(provenance), d, entries),
        provenance=provenance,
        penalty_leaked=penalty_leaked,
    )


def _symmetrized(t: tuple, d: int) -> tuple:
    return tuple(t[x * d + y] + t[y * d + x] for x in range(d) for y in range(d))


def _transposed(t: tuple, d: int) -> tuple:
    return tuple(t[y * d + x] for x in range(d) for y in range(d))


def symmetrize(view: BinaryView) -> BinaryView:
    """g(x, y) = f(x, y) + f(y, x); symmetric by construction."""
    f = view.table
    d = f.domain_size
    return _view(("symmetrize", view.provenance), d, _symmetrized(f.table, d), view.penalty_leaked)


def transpose_view(view: BinaryView) -> BinaryView:
    d = view.domain_size
    return _view(
        ("transpose", view.provenance), d, _transposed(view.table.table, d), view.penalty_leaked
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
    return _view(("add_unaries", view.provenance, u1, u2), d, entries, view.penalty_leaked)


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
    return _view(("shift", view.provenance, delta), f.domain_size, entries, view.penalty_leaked)


def _projection(f: CostFunction, i: int, j: int) -> tuple:
    """Minimize f over every coordinate except the ordered pair (i, j)."""
    d = f.domain_size
    best = [INF] * (d * d)
    for args, v in zip(f.tuples(), f.table):
        k = args[i] * d + args[j]
        if v < best[k]:
            best[k] = v
    return tuple(best)


def _pin(table: tuple, arity: int, d: int, coord: int, value: int) -> tuple:
    """Fix one argument of a table to `value` through a steep finite unary.

    result(z) = min_a { u(a) + f(..a..z..) } with u(value) = 0 and u(a) = C
    otherwise, where C = 1 + (the sum of f's finite entries) dominates every
    finite entry.  So the result is the restriction f(..value..z..) wherever
    that is finite; where it is infinite the penalty leaks through as soon
    as another label is finite.  Returns (result, C, leaked).
    """
    C = 1 + sum(v for v in table if v is not INF)
    stride = d ** (arity - 1 - coord)
    block = stride * d
    out = []
    leaked = False
    for start in range(0, len(table), block):
        for lo in range(start, start + stride):
            exact = table[lo + value * stride]
            if exact is INF:
                # the slice is infinite here: the cheapest other label leaks
                exact = min(table[lo : lo + block : stride])
                if exact is not INF:
                    leaked = True
                    exact = as_cost(exact + C)
            out.append(exact)
    return tuple(out), C, leaked


def _pinned_slices(f: CostFunction) -> Iterator[tuple]:
    """Every pin-then-project slice of f in pool order, as (entries, provenance, leaked).

    Each kept pair (i, j) pins the other coordinates from the highest down,
    then orders the two kept ones.  A (coordinate, value) prefix is pinned
    once and shared by every keep order and slice that starts with it.
    """
    d = f.domain_size
    pinned: dict = {}  # prefix -> (table, pins, leaked)
    for i, j in itertools.permutations(range(f.arity), 2):
        rest = [c for c in reversed(range(f.arity)) if c != i and c != j]
        for values in itertools.product(range(d), repeat=len(rest)):
            prefix = tuple(zip(rest, reversed(values)))
            table, pins, leaked = f.table, (), False
            for n in range(1, len(prefix) + 1):
                got = pinned.get(prefix[:n])
                if got is None:
                    coord, value = prefix[n - 1]
                    sliced, C, leak = _pin(table, f.arity + 1 - n, d, coord, value)
                    got = (sliced, ((coord, value, C),) + pins, leaked or leak)
                    pinned[prefix[:n]] = got
                table, pins, leaked = got
            # the two kept coordinates remain in ascending order
            if i > j:
                table = _transposed(table, d)
            yield table, ("pin_project", f.name, pins, (i, j)), leaked


def _chain_sums(ft: tuple, gt: tuple, d: int) -> list:
    """Per cell (x, z) in row-major order: [f(x,y) + g(y,z) over y, None].

    The None is filled with the three smallest (sum, y) the first time a
    middle pair's two sums at the cell are both infinite.
    """
    cols = [gt[z::d] for z in range(d)]
    return [
        [[a + b for a, b in zip(ft[x * d : x * d + d], col)], None]
        for x in range(d)
        for col in cols
    ]


def _chain_table(cells: list, C, a: int, b: int) -> tuple:
    """h(x, z) = min_y { sums(x,z)[y] + (0 if y in {a, b} else C) }.

    C exceeds every finite sum, so an off-pair label wins only where both
    middle labels' sums are infinite.
    """
    out = []
    for cell in cells:
        sums = cell[0]
        best, sb = sums[a], sums[b]
        if best is INF:
            if sb is INF:
                if cell[1] is None:
                    cell[1] = sorted(zip(sums, range(len(sums))))[:3]
                best = next((s + C for s, y in cell[1] if y != a and y != b), INF)
            else:
                best = sb
        elif sb is not INF and sb < best:
            best = sb
        out.append(best)
    return tuple(out)


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
    entries = _chain_table(_chain_sums(f.table.table, g.table.table, d), C, a2, b2)
    prov = ("min_chain", f.provenance, g.provenance, (a2, b2), C)
    return _view(prov, d, entries, f.penalty_leaked or g.penalty_leaked)


def _candidates(lang: Language, views: list, chain_depth: int) -> Iterator[tuple]:
    """The pool's candidate views in order, as (entries, provenance, leaked).

    The symmetrize and chain stages read `views` as it stands when they start.
    """
    d = lang.domain_size
    for f in lang.functions:
        if f.arity == 2:
            yield f.table, ("base", f.name), False
    for f in lang.functions:
        if f.arity >= 2:
            for i, j in itertools.permutations(range(f.arity), 2):
                yield _projection(f, i, j), ("project_min", f.name, (i, j)), False
    for f in lang.functions:
        if f.arity >= 3:
            yield from _pinned_slices(f)
    for view in list(views):
        yield _symmetrized(view.table.table, d), ("symmetrize", view.provenance), view.penalty_leaked
    # a middle pair and its reverse give the same table
    mids = [(a, b) for a in range(d) for b in range(a + 1, d)]
    for _ in range(chain_depth):
        snapshot = [(v, v.table.max_finite()) for v in views]
        for (f, f_max), (g, g_max) in itertools.product(snapshot, repeat=2):
            C = 1 + f_max + g_max
            cells = _chain_sums(f.table.table, g.table.table, d)
            leaked = f.penalty_leaked or g.penalty_leaked
            for a, b in mids:
                prov = ("min_chain", f.provenance, g.provenance, (a, b), C)
                yield _chain_table(cells, C, a, b), prov, leaked
        if len(views) == len(snapshot):
            break  # the next pass would read the same views and add none


def enumerate_binary_pool(lang: Language, budget: PoolBudget = PoolBudget()) -> Pool:
    """Deterministically enumerate binary views of the language.

    Stages: binary members, min-projections, pin-then-project slices,
    symmetrizations, then chain compositions up to the configured depth.
    Views are deduplicated by exact table equality (first derivation wins);
    hitting the view budget truncates the pool and sets the flag.
    """
    views: list = []
    seen: set = set()
    for entries, provenance, leaked in _candidates(lang, views, budget.chain_depth):
        if entries in seen:
            continue
        if len(views) >= budget.max_views:
            return Pool(views=tuple(views), truncated=True)
        view = _view(provenance, lang.domain_size, entries, leaked)
        seen.add(view.table.table)
        views.append(view)
    return Pool(views=tuple(views), truncated=False)
