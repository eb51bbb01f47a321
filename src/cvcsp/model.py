"""Core value types for valued constraint languages and instances.

Costs are exact: a finite cost is a Python int or Fraction (never a float),
and infinity is the distinguished singleton INF rather than a large sentinel.
All comparisons and sums over costs are therefore bit-exact, which the
classifier relies on (tractable vs NP-hard hinges on strict inequalities).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

MAX_DOMAIN_SIZE = 16
MAX_ARITY = 4
MAX_NODES = 1 << 20


class InputError(ValueError):
    """Malformed user input: bad tables, out-of-range labels, bad scopes."""


class BudgetExceeded(RuntimeError):
    """A configured enumeration or search budget would be overrun."""


class Infinite:
    """The infinite cost.  Absorbing under addition, larger than any finite cost."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Infinite)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __lt__(self, other):
        if isinstance(other, (int, Fraction, Infinite)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, (int, Fraction, Infinite)):
            return other is self
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (int, Fraction, Infinite)):
            return other is not self
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, Fraction, Infinite)):
            return True
        return NotImplemented

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("cvcsp-infinite-cost")

    def __repr__(self):
        return "INF"


INF = Infinite()

Cost = Union[int, Fraction, Infinite]
Assignment = tuple  # labels, one per node


def is_finite(c: Cost) -> bool:
    return c is not INF


def as_cost(value) -> Cost:
    """Normalize a table entry to canonical cost form (int when integral)."""
    if value is INF:
        return INF
    if isinstance(value, bool):
        raise InputError(f"boolean is not a cost: {value!r}")
    if isinstance(value, int):
        num = value
    elif isinstance(value, Fraction):
        num = int(value) if value.denominator == 1 else value
    else:
        raise InputError(f"cost must be int, Fraction or INF, got {type(value).__name__}")
    if num < 0:
        raise InputError(f"costs must be non-negative, got {num}")
    return num


@dataclass(frozen=True)
class CostFunction:
    """A dense cost table over D^arity, row-major (last coordinate fastest)."""

    name: str
    arity: int
    domain_size: int
    table: tuple

    def __post_init__(self):
        if self.domain_size < 2 or self.domain_size > MAX_DOMAIN_SIZE:
            raise InputError(f"domain size {self.domain_size} outside 2..{MAX_DOMAIN_SIZE}")
        if self.arity < 0 or self.arity > MAX_ARITY:
            raise InputError(f"arity {self.arity} outside 0..{MAX_ARITY}")
        expected = self.domain_size ** self.arity
        if len(self.table) != expected:
            raise InputError(
                f"{self.name}: table has {len(self.table)} entries, expected {expected}"
            )
        object.__setattr__(self, "table", tuple(as_cost(v) for v in self.table))

    def index(self, args: Sequence[int]) -> int:
        idx = 0
        for a in args:
            if not 0 <= a < self.domain_size:
                raise InputError(f"label {a} outside domain 0..{self.domain_size - 1}")
            idx = idx * self.domain_size + a
        return idx

    def value(self, args: Sequence[int]) -> Cost:
        return self.table[self.index(args)]

    def tuples(self) -> Iterable[tuple]:
        return itertools.product(range(self.domain_size), repeat=self.arity)

    def is_finite_valued(self) -> bool:
        return all(v is not INF for v in self.table)

    def max_finite(self) -> Cost:
        finite = [v for v in self.table if v is not INF]
        return max(finite) if finite else 0


@dataclass(frozen=True)
class Language:
    """A finite set of cost functions over a shared domain.

    All finite-valued unary cost functions are implicitly members
    (conservativity); listed unaries are kept but never drive classification.
    """

    domain_size: int
    functions: tuple

    def __post_init__(self):
        if not 2 <= self.domain_size <= MAX_DOMAIN_SIZE:
            raise InputError(f"domain size {self.domain_size} outside 2..{MAX_DOMAIN_SIZE}")
        object.__setattr__(self, "functions", tuple(self.functions))
        seen = set()
        for f in self.functions:
            if f.domain_size != self.domain_size:
                raise InputError(
                    f"{f.name}: domain size {f.domain_size} != language domain {self.domain_size}"
                )
            if f.name in seen:
                raise InputError(f"duplicate function name {f.name!r}")
            seen.add(f.name)

    @property
    def mode(self) -> str:
        return "finite_valued" if self.is_finite_valued() else "general_valued"

    def is_finite_valued(self) -> bool:
        return all(f.is_finite_valued() for f in self.functions)

    def get(self, name: str) -> CostFunction:
        for f in self.functions:
            if f.name == name:
                return f
        raise InputError(f"unknown function {name!r}")

    def unary_functions(self) -> tuple:
        return tuple(f for f in self.functions if f.arity == 1)


@dataclass(frozen=True)
class VcspInstance:
    """A sum of cost-function terms applied to scopes over a node set."""

    node_count: int
    terms: tuple  # of (CostFunction, scope tuple)

    def __post_init__(self):
        if self.node_count > MAX_NODES:
            raise InputError(f"{self.node_count} nodes exceed the limit of {MAX_NODES}")
        object.__setattr__(
            self, "terms", tuple((f, tuple(scope)) for f, scope in self.terms)
        )
        for f, scope in self.terms:
            first = self.terms[0][0]
            if f.domain_size != first.domain_size:
                raise InputError(
                    f"term {f.name}: domain size {f.domain_size} != "
                    f"{first.domain_size} of term {first.name}"
                )
            if len(scope) != f.arity:
                raise InputError(
                    f"term {f.name}: scope length {len(scope)} != arity {f.arity}"
                )
            for v in scope:
                if not 0 <= v < self.node_count:
                    raise InputError(f"term {f.name}: node {v} outside 0..{self.node_count - 1}")

    def domain_size(self) -> int:
        for f, _ in self.terms:
            return f.domain_size
        raise InputError("instance has no terms; domain size is undetermined")


def evaluate(instance: VcspInstance, x: Assignment) -> Cost:
    """Total cost of an assignment: the infinity-absorbing sum over all terms."""
    if len(x) != instance.node_count:
        raise InputError(f"assignment length {len(x)} != node count {instance.node_count}")
    total: Cost = 0
    for f, scope in instance.terms:
        d = f.domain_size
        idx = 0
        for i in scope:  # CostFunction.index, inline
            a = x[i]
            if not 0 <= a < d:
                raise InputError(f"label {a} outside domain 0..{d - 1}")
            idx = idx * d + a
        v = f.table[idx]
        if v is INF:
            return INF
        total = total + v
    return total
