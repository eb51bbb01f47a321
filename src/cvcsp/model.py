"""Core value types for valued constraint languages and instances.

Costs are exact: a finite cost is a Python int or Fraction (never a float),
and infinity is the distinguished singleton INF rather than a large sentinel.
All comparisons and sums over costs are therefore bit-exact, which the
classifier relies on (tractable vs NP-hard hinges on strict inequalities).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Sequence, Union

MAX_DOMAIN_SIZE = 16
MAX_ARITY = 4
MAX_NODES = 1 << 20
DEFAULT_BRUTE_BUDGET = 1 << 24  # the exact-enumeration budget, --brute-budget


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

_set = object.__setattr__  # how a record's __init__ sets its fields


class Record:
    """Base of the package's immutable records, with the semantics of a
    frozen dataclass.  A subclass lists its two or more fields in __slots__,
    in the order of its __init__ parameters, and sets them in __init__ with
    object.__setattr__.  A record equals only a record of its own class with
    equal fields, hashes as the tuple of its fields, shows them in its repr,
    and rejects assignment and deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._values = attrgetter(*cls.__slots__)  # the tuple of the fields, made once

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._values(self)

Cost = Union[int, Fraction, Infinite]
Assignment = tuple  # labels, one per node


def check_domain_size(domain_size: int, where: str = "") -> None:
    if not 2 <= domain_size <= MAX_DOMAIN_SIZE:
        raise InputError(f"{where}domain size {domain_size} outside 2..{MAX_DOMAIN_SIZE}")


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


class CostFunction(Record):
    """A dense cost table over D^arity, row-major (last coordinate fastest)."""

    __slots__ = ("name", "arity", "domain_size", "table")

    def __init__(self, name: str, arity: int, domain_size: int, table: tuple):
        check_domain_size(domain_size)
        if arity < 0 or arity > MAX_ARITY:
            raise InputError(f"arity {arity} outside 0..{MAX_ARITY}")
        expected = domain_size ** arity
        if len(table) != expected:
            raise InputError(f"{name}: table has {len(table)} entries, expected {expected}")
        _set(self, "name", name)
        _set(self, "arity", arity)
        _set(self, "domain_size", domain_size)
        _set(self, "table", tuple(as_cost(v) for v in table))

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


class Language(Record):
    """A finite set of cost functions over a shared domain.

    All finite-valued unary cost functions are implicitly members
    (conservativity); listed unaries are kept but never drive classification.
    """

    __slots__ = ("domain_size", "functions")

    def __init__(self, domain_size: int, functions: tuple):
        check_domain_size(domain_size)
        functions = tuple(functions)
        _set(self, "domain_size", domain_size)
        _set(self, "functions", functions)
        seen = set()
        for pos, f in enumerate(functions):
            if f.domain_size != domain_size:
                raise InputError(
                    f"functions[{pos}]: domain size {f.domain_size} != language domain {domain_size}"
                )
            if f.name in seen:
                raise InputError(f"functions[{pos}]: duplicate function name {f.name!r}")
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


class VcspInstance(Record):
    """A sum of cost-function terms applied to scopes over a node set."""

    __slots__ = ("node_count", "terms")  # terms: (CostFunction, scope tuple) pairs

    def __init__(self, node_count: int, terms: tuple):
        if node_count > MAX_NODES:
            raise InputError(f"{node_count} nodes exceed the limit of {MAX_NODES}")
        terms = tuple((f, tuple(scope)) for f, scope in terms)
        _set(self, "node_count", node_count)
        _set(self, "terms", terms)
        for pos, (f, scope) in enumerate(terms):
            first = terms[0][0]
            if f.domain_size != first.domain_size:
                raise InputError(
                    f"terms[{pos}]: domain size {f.domain_size} != {first.domain_size} of terms[0]"
                )
            if len(scope) != f.arity:
                raise InputError(f"terms[{pos}]: scope length {len(scope)} != arity {f.arity}")
            for v in scope:
                if not 0 <= v < node_count:
                    raise InputError(f"terms[{pos}]: node {v} outside 0..{node_count - 1}")

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
