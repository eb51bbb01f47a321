"""Bucket elimination against exact enumeration.

`brute_force` enumerates every assignment and keeps the first strictly
better one, so it returns the lexicographically smallest optimum, or the
all-zero assignment when every assignment costs INF.  `eliminate` must
return the same assignment, the same cost (in value and in its JSON
spelling) and the same `infeasible` stat on every instance.  It must still
eliminate when its table entries exceed the budget but the d^n assignments
do not, and refuse only when both exceed it.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest

from cvcsp.cli import cost_to_json
from cvcsp.model import INF, BudgetExceeded, CostFunction, VcspInstance, evaluate
from cvcsp.solver import brute_force, eliminate

CASES = 1200
# the largest node count per domain size keeps d^n within about a thousand
MAX_NODES = {2: 9, 3: 6, 4: 5}


def random_entry(rng, kind, inf_prob):
    if inf_prob and rng.random() < inf_prob:
        return INF
    if kind == "half" and rng.random() < 0.5:
        return Fraction(rng.randint(0, 9), 2)
    return rng.randint(0, 4)


def random_instance(rng):
    d = rng.choice((2, 3, 4))
    n = rng.randint(0, MAX_NODES[d])
    kind = rng.choice(("int", "half"))
    inf_prob = rng.choice((0.0, 0.0, 0.15, 0.5))
    # scopes draw from a subset of the nodes, so some nodes go untouched
    used = rng.sample(range(n), rng.randint(1, n)) if n else []
    terms = []
    for k in range(rng.randint(1, 7)):
        arity = rng.choice((0, 1, 1, 2, 2, 2, 3)) if used else 0
        table = tuple(random_entry(rng, kind, inf_prob) for _ in range(d ** arity))
        f = CostFunction(f"f{k}", arity, d, table)
        terms.append((f, tuple(rng.choice(used) for _ in range(arity))))
    return VcspInstance(n, tuple(terms))


def test_eliminate_matches_brute_force_on_random_instances():
    rng = random.Random(1313)
    seen = dict.fromkeys(
        ("d2", "d3", "d4", "arity0", "arity3", "fraction", "repeated", "unsorted",
         "untouched", "infeasible", "window", "refused_raises"),
        0,
    )
    for _ in range(CASES):
        inst = random_instance(rng)
        d, n = inst.domain_size(), inst.node_count
        seen[f"d{d}"] += 1
        arities = {f.arity for f, _ in inst.terms}
        seen["arity0"] += 0 in arities
        seen["arity3"] += 3 in arities
        seen["fraction"] += any(isinstance(v, Fraction) for f, _ in inst.terms for v in f.table)
        seen["repeated"] += any(len(set(scope)) < len(scope) for _, scope in inst.terms)
        # a decreasing binary scope is re-indexed to increasing order first
        seen["unsorted"] += any(len(scope) == 2 and scope[0] > scope[1] for _, scope in inst.terms)
        seen["untouched"] += len({v for _, scope in inst.terms for v in scope}) < n

        expected = brute_force(inst)
        got = eliminate(inst)
        assert got.method == "elimination"
        assert got.assignment == expected.assignment
        assert got.cost == expected.cost
        assert cost_to_json(got.cost) == cost_to_json(expected.cost)
        assert got.stats.get("infeasible") == expected.stats.get("infeasible")
        assert evaluate(inst, got.assignment) == got.cost
        seen["infeasible"] += got.cost is INF

        # one entry short of the elimination's tables, it still eliminates
        # while the d^n assignments fit the budget
        budget = got.stats["table_entries"] - 1
        if budget < 1:
            continue
        if d ** n <= budget:
            window = eliminate(inst, budget)
            assert window.method == "elimination"
            assert repr((window.assignment, window.cost)) == repr((expected.assignment, expected.cost))
            assert window.stats == got.stats
            seen["window"] += 1
        else:
            with pytest.raises(BudgetExceeded):
                eliminate(inst, budget)
            seen["refused_raises"] += 1
    assert all(seen.values()), seen
    assert seen["unsorted"] >= 200, seen  # 290 of the 1,200 instances


def test_infeasible_optimum_is_all_zero_even_where_later_buckets_are_finite():
    # node 0 is infeasible on every label; nodes 1 and 2 alone prefer label 1,
    # which a greedy forward decode would pick
    dead = CostFunction("dead", 1, 2, (INF, INF))
    prefer_one = CostFunction("p", 1, 2, (3, 0))
    inst = VcspInstance(3, ((dead, (0,)), (prefer_one, (1,)), (prefer_one, (2,))))
    result = eliminate(inst)
    assert result.assignment == (0, 0, 0) == brute_force(inst).assignment
    assert result.cost is INF and result.stats["infeasible"] is True


def test_ties_go_to_the_smallest_label():
    flat = CostFunction("flat", 1, 3, (1, 1, 1))
    eq = CostFunction("eq", 2, 3, tuple(int(x != y) for x in range(3) for y in range(3)))
    inst = VcspInstance(3, ((flat, (0,)), (eq, (0, 2)), (eq, (2, 1))))
    assert eliminate(inst).assignment == (0, 0, 0) == brute_force(inst).assignment


def test_width_and_table_entries_of_a_path():
    # buckets {1,2}, {0,1} and {0}: 4 + 4 + 2 entries, one neighbour each
    eq = CostFunction("eq", 2, 2, (0, 1, 1, 0))
    inst = VcspInstance(3, ((eq, (0, 1)), (eq, (1, 2))))
    assert eliminate(inst).stats == {"width": 1, "table_entries": 10}


def test_repeated_scope_node_reads_the_diagonal():
    f = CostFunction("f", 2, 3, (5, 0, 0, 0, 2, 0, 0, 0, 7))
    result = eliminate(VcspInstance(1, ((f, (0, 0)),)))
    assert result.assignment == (1,) and result.cost == 2


def test_nodeless_instances():
    assert eliminate(VcspInstance(0, ())).assignment == ()
    c = CostFunction("c", 0, 2, (Fraction(3, 2),))
    result = eliminate(VcspInstance(0, ((c, ()), (c, ()))))
    assert result.assignment == () and cost_to_json(result.cost) == 3


def test_memory_peak_on_a_clique():
    # the last bucket of a 10-node d=3 clique spans all 3^10 = 59,049
    # assignments.  Before tables were expanded by repetition, elimination
    # peaked at 1,508,864 B here on CPython 3.11.7 and 1,511,340 B on
    # 3.10.13, holding the bucket table, an index list and the next table;
    # the bound is that peak plus 5%.  Expansion by repetition peaks at
    # about 1,182,000 B on both.
    potts = CostFunction("potts", 2, 3, tuple(int(x != y) for x in range(3) for y in range(3)))
    u = CostFunction("u", 1, 3, (0, 1, 2))
    pairs = tuple((potts, (i, j)) for i in range(10) for j in range(i + 1, 10))
    inst = VcspInstance(10, pairs + ((u, (0,)),))
    tracemalloc.start()
    try:
        result = eliminate(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stats == {"width": 9, "table_entries": 88572}
    assert result.assignment == (0,) * 10 and result.cost == 0
    assert peak <= 1_511_340 * 105 // 100, peak
