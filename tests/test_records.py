"""The package's records against frozen-dataclass twins.

Each record is a plain class with __slots__ on `model.Record`.  Its twin is
made here by `dataclasses.make_dataclass(..., frozen=True)` from the field
names and defaults the record had as a frozen dataclass, so these tests pin
that behaviour: the same constructor, repr, equality and hash, and
assignment that raises AttributeError.
"""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest

from cvcsp.model import INF, CostFunction, Language, VcspInstance
from cvcsp.express import BinaryView, Pool, PoolBudget
from cvcsp.pairgraph import Closure, PairEdge, PairGraph, SoftLoopWitness
from cvcsp.dichotomy import Classification, OperationPair, Violation
from cvcsp.hardness import Decoder, HardnessWitness, ReductionMismatch, SourceGraph
from cvcsp.solver import SolveResult

FRESH_DICT = object()  # a default of field(default_factory=dict)
NO_DEFAULT = inspect.Parameter.empty

f1 = CostFunction("u", 1, 2, (0, 1))
f2 = CostFunction("g", 2, 2, (0, INF, Fraction(1, 2), 3))
f3 = CostFunction("h", 1, 3, (2, 0, 1))
view = BinaryView(f2, ("base", "g"))
leaked = BinaryView(f2, ("base", "g"), True)
edge = PairEdge(((0, 1), (0, 1)), True, view, (0, 1, 1, 0))
closure = Closure((edge,), {(0, 1): ((0, 1), 1)}, frozenset({(0, 1)}), frozenset({(0, 1)}))
pool = Pool((view,), False)
graph = PairGraph(2, (), ((0, 1), (1, 0)), closure, pool)
pair = OperationPair(2, (0, 0, 0, 1), (0, 1, 1, 1))

# record: (its fields with their defaults, two samples of constructor
# arguments that give different records)
RECORDS = {
    CostFunction: (
        {"name": NO_DEFAULT, "arity": NO_DEFAULT, "domain_size": NO_DEFAULT, "table": NO_DEFAULT},
        [("u", 1, 2, (0, 1)), ("g", 2, 2, (0, INF, Fraction(1, 2), 3))],
    ),
    Language: ({"domain_size": NO_DEFAULT, "functions": NO_DEFAULT}, [(2, (f1, f2)), (3, (f3,))]),
    VcspInstance: (
        {"node_count": NO_DEFAULT, "terms": NO_DEFAULT},
        [(2, ((f1, (0,)), (f2, (0, 1)))), (3, ((f2, (2, 0)),))],
    ),
    BinaryView: (
        {"table": NO_DEFAULT, "provenance": NO_DEFAULT, "penalty_leaked": False},
        [(f2, ("base", "g")), (f2, ("base", "g"), True)],
    ),
    PoolBudget: ({"max_views": 64, "chain_depth": 1}, [(), (8, 0)]),
    Pool: ({"views": NO_DEFAULT, "truncated": NO_DEFAULT}, [((view,), False), ((), True)]),
    PairEdge: (
        {"endpoints": NO_DEFAULT, "soft": NO_DEFAULT, "view": NO_DEFAULT, "quad": NO_DEFAULT},
        [(((0, 1), (0, 1)), True, view, (0, 1, 1, 0)), (((0, 1), (1, 0)), False, leaked, (1, 0, 0, 1))],
    ),
    Closure: (
        {"detected": NO_DEFAULT, "signs": NO_DEFAULT, "contradicted": NO_DEFAULT, "soft": NO_DEFAULT},
        [
            ((edge,), {(0, 1): ((0, 1), 1)}, frozenset({(0, 1)}), frozenset({(0, 1)})),
            ((), {}, frozenset(), frozenset()),
        ],
    ),
    PairGraph: (
        dict.fromkeys(("domain_size", "M", "m_bar", "closure", "pool"), NO_DEFAULT),
        [
            (2, (), ((0, 1), (1, 0)), closure, pool),
            (2, ((0, 1), (1, 0)), (), Closure((), {}, frozenset(), frozenset()), Pool((), True)),
        ],
    ),
    SoftLoopWitness: (
        {"node": NO_DEFAULT, "view": NO_DEFAULT},
        [((0, 1), view), ((1, 0), leaked)],
    ),
    OperationPair: (
        {"domain_size": NO_DEFAULT, "meet": NO_DEFAULT, "join": NO_DEFAULT},
        [(2, (0, 0, 0, 1), (0, 1, 1, 1)), (2, (0, 1, 1, 1), (0, 0, 0, 1))],
    ),
    Violation: (
        dict.fromkeys(("function_name", "x", "y", "lhs", "rhs"), NO_DEFAULT),
        [("g", (0, 1), (1, 0), 3, 2), ("g", (0, 1), (1, 0), INF, Fraction(7, 2))],
    ),
    Classification: (
        {
            "verdict": NO_DEFAULT,
            "certificate": None,
            "witness": None,
            "reason": "",
            "submodular_order": None,
            "graph": None,
            "stats": FRESH_DICT,
        },
        [("TRACTABLE",), ("NP_HARD", pair, view, "a soft self-loop", (1, 0), graph, {"k": 1})],
    ),
    SourceGraph: (
        {"vertex_count": NO_DEFAULT, "edges": NO_DEFAULT},
        [(3, ((0, 1), (1, 2))), (2, ((0, 1),))],
    ),
    HardnessWitness: (
        dict.fromkeys(("pair_node", "view", "kind", "normalized"), NO_DEFAULT),
        [((0, 1), view, "both_finite", view), ((1, 0), leaked, "one_infinite", view)],
    ),
    Decoder: (
        {"kind": NO_DEFAULT, "offset": NO_DEFAULT, "slope": NO_DEFAULT},
        [("maxcut", 5, Fraction(1, 2)), ("mis", 3, 1)],
    ),
    ReductionMismatch: (
        {"expected": NO_DEFAULT, "decoded": NO_DEFAULT, "optimum": NO_DEFAULT},
        [(2, Fraction(3, 2), 1), (2, 2, INF)],
    ),
    SolveResult: (
        {"assignment": NO_DEFAULT, "cost": NO_DEFAULT, "method": NO_DEFAULT, "stats": FRESH_DICT},
        [((0, 1), 3, "min_cut"), ((1,), INF, "elimination", {"width": 1})],
    ),
}


def twin(cls):
    """A frozen dataclass with the record's name, fields and defaults."""
    spec = []
    for name, default in RECORDS[cls][0].items():
        if default is FRESH_DICT:
            spec.append((name, object, dataclasses.field(default_factory=dict)))
        elif default is NO_DEFAULT:
            spec.append((name, object))
        else:
            spec.append((name, object, dataclasses.field(default=default)))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a field holds a dict
        return str(exc)


def test_every_record_is_covered():
    assert len(RECORDS) == 18


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_its_frozen_dataclass_twin(cls):
    fields, samples = RECORDS[cls]
    Twin = twin(cls)
    params = inspect.signature(cls).parameters
    assert list(params) == list(fields)
    for name, default in fields.items():
        if default is not FRESH_DICT:  # see test_default_stats_dict_is_not_shared
            assert params[name].default == default
    records = [cls(*args) for args in samples]
    twins = [Twin(*args) for args in samples]
    for args, record, other in zip(samples, records, twins):
        assert repr(record) == repr(other)
        assert record == cls(*args) and not record != cls(*args)  # a new, equal record
        assert cls(**dict(zip(fields, args))) == record  # by keyword
        assert record != other and other != record  # another class never equals it
        assert hash_or_error(record) == hash_or_error(other)
        assert copy.copy(record) == record and copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
    for (a, b), (ta, tb) in zip([records, records[::-1]], [twins, twins[::-1]]):
        assert (a == b) is (ta == tb) is False
        assert (a != b) is (ta != tb) is True
    required = sum(default is NO_DEFAULT for default in fields.values())
    args = samples[0][:required]
    assert repr(cls(*args)) == repr(Twin(*args))  # the defaults


@pytest.mark.parametrize("cls", [Classification, SolveResult], ids=lambda cls: cls.__name__)
def test_default_stats_dict_is_not_shared(cls):
    required = RECORDS[cls][1][0]
    a, b = cls(*required), cls(*required)
    assert a.stats == {} and a.stats is not b.stats
    a.stats["k"] = 1
    assert b.stats == {}


def test_records_of_different_classes_with_equal_fields_differ():
    assert Decoder("mis", 3, 1) != ReductionMismatch("mis", 3, 1)
    assert not PoolBudget(8, 0) == Pool(8, 0)
