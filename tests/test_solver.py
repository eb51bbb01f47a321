import random
from fractions import Fraction

import pytest

from cvcsp.model import INF, BudgetExceeded, CostFunction, InputError, VcspInstance, evaluate
from cvcsp import dichotomy, solver
from cvcsp.dichotomy import Classification, NP_HARD, TRACTABLE
from cvcsp.solver import (
    FlowNetwork,
    brute_force,
    max_flow,
    solve,
    solve_mincut,
)
from corpus import (
    random_cost_function,
    random_order,
    random_submodular_binary,
    random_submodular_instance,
)
from oracles import add_arc, min_cost, min_max_pair, submodularity_violation


def two_node_instance():
    u1 = CostFunction("u1", 1, 2, (0, 5))
    u2 = CostFunction("u2", 1, 2, (3, 0))
    b = CostFunction("b", 2, 2, (0, 2, 2, 0))
    return VcspInstance(2, ((u1, (0,)), (u2, (1,)), (b, (0, 1))))


# --------------------------------------------------------------- brute force


def test_brute_force_two_node_example():
    result = brute_force(two_node_instance())
    assert result.cost == 2 and result.assignment == (0, 1)
    assert result.method == "brute_force"


def test_brute_force_single_node():
    u = CostFunction("u", 1, 3, (4, 1, 7))
    result = brute_force(VcspInstance(1, ((u, (0,)),)))
    assert result.cost == 1 and result.assignment == (1,)


def test_brute_force_flags_infeasible():
    f = CostFunction("f", 2, 2, (INF, INF, INF, INF))
    result = brute_force(VcspInstance(2, ((f, (0, 1)),)))
    assert result.cost is INF and result.stats.get("infeasible")


def test_brute_force_budget():
    u = CostFunction("u", 1, 4, (0, 1, 2, 3))
    inst = VcspInstance(12, tuple((u, (i,)) for i in range(12)))
    with pytest.raises(BudgetExceeded):
        brute_force(inst, budget=1000)


def test_brute_force_lexicographic_tie_break():
    flat = CostFunction("flat", 1, 3, (1, 1, 1))
    result = brute_force(VcspInstance(2, ((flat, (0,)), (flat, (1,)))))
    assert result.assignment == (0, 0)


# ------------------------------------------------------------------ max flow


def test_max_flow_single_arc_fraction():
    net = FlowNetwork(2)
    add_arc(net, 0, 1, Fraction(7, 2))
    value, side, cut = max_flow(net, 0, 1)
    assert value == Fraction(7, 2) and cut == value and side == {0}


def test_max_flow_refuses_a_sink_that_is_the_source():
    net = FlowNetwork(2)
    add_arc(net, 0, 1, 1)
    with pytest.raises(InputError, match="source and sink are the same node 0"):
        max_flow(net, 0, 0)


def test_max_flow_diamond():
    net = FlowNetwork(4)
    add_arc(net, 0, 2, 1)
    add_arc(net, 0, 3, 1)
    add_arc(net, 2, 1, 1)
    add_arc(net, 3, 1, 1)
    value, side, cut = max_flow(net, 0, 1)
    assert value == 2 == cut


def test_max_flow_respects_infinite_arcs():
    net = FlowNetwork(3)
    add_arc(net, 0, 2, 5)
    add_arc(net, 2, 1, INF)
    value, side, cut = max_flow(net, 0, 1)
    # the finite arc saturates; the infinite arc is never part of the cut
    assert value == 5 and side == {0}


def test_max_flow_infinite_path_is_infinite():
    net = FlowNetwork(4)
    add_arc(net, 0, 2, 3)
    add_arc(net, 0, 3, INF)
    add_arc(net, 3, 2, INF)
    add_arc(net, 2, 1, INF)
    assert max_flow(net, 0, 1) == (INF, None, INF)


def test_max_flow_cut_of_every_finite_arc():
    # the minimum cut holds every finite arc, so the flow reaches the sum of
    # the finite capacities, one less than the capacity INF arcs get inside
    net = FlowNetwork(5)
    add_arc(net, 0, 2, 4)
    add_arc(net, 0, 3, Fraction(5, 2))
    add_arc(net, 2, 4, INF)
    add_arc(net, 3, 4, INF)
    add_arc(net, 4, 1, INF)
    value, side, cut = max_flow(net, 0, 1)
    assert value == cut == Fraction(13, 2) and side == {0}


def test_max_flow_two_node_encoding_cut_is_two():
    result = solve_mincut(two_node_instance(), (0, 1))
    assert result.stats["offset"] + result.stats["flow"] == 2
    assert result.stats["flow"] == result.stats["cut"]


# ------------------------------------------------------------------- min cut


def test_mincut_two_node_example():
    result = solve_mincut(two_node_instance(), (0, 1))
    assert result.cost == 2 and result.assignment == (0, 1)
    assert result.method == "min_cut"


def test_mincut_unary_only_sums_minima():
    u1 = CostFunction("u1", 1, 3, (4, 1, 7))
    u2 = CostFunction("u2", 1, 3, (0, 9, 2))
    inst = VcspInstance(2, ((u1, (0,)), (u2, (1,))))
    result = solve_mincut(inst, (2, 0, 1))
    assert result.cost == 1


def test_mincut_pinned_distance_chain():
    dist = CostFunction("dist", 2, 3, tuple(abs(x - y) for x in range(3) for y in range(3)))
    pin0 = CostFunction("pin0", 1, 3, (0, 50, 50))
    pin3 = CostFunction("pin3", 1, 3, (50, 50, 0))
    inst = VcspInstance(
        4,
        (
            (dist, (0, 1)),
            (dist, (1, 2)),
            (dist, (2, 3)),
            (pin0, (0,)),
            (pin3, (3,)),
        ),
    )
    expected, _ = min_cost(inst, 3)
    assert expected == 2  # oracle
    result = solve_mincut(inst, (0, 1, 2))
    assert result.cost == 2
    assert brute_force(inst).cost == 2


def test_mincut_refuses_non_submodular_term():
    eq = CostFunction("eq", 2, 2, (1, 0, 0, 1))
    inst = VcspInstance(2, ((eq, (0, 1)),))
    assert submodularity_violation(eq, (0, 1)) is not None
    assert solve_mincut(inst, (0, 1)) is None


def test_mincut_checks_each_table_once(monkeypatch):
    # each distinct table gets one cut template, which is its submodularity
    # check; the first table without one ends the route
    dist = CostFunction("dist", 2, 3, tuple(abs(x - y) for x in range(3) for y in range(3)))
    potts = CostFunction("potts", 2, 3, tuple(int(x != y) for x in range(3) for y in range(3)))
    templates = []
    cut_template = solver._cut_template

    def counted_template(f, order):
        templates.append(f.name)
        return cut_template(f, order)

    monkeypatch.setattr(solver, "_cut_template", counted_template)
    inst = VcspInstance(5, tuple((dist, (i, i + 1)) for i in range(4)))
    assert solve_mincut(inst, (0, 1, 2)).cost == 0
    assert templates == ["dist"]
    templates.clear()
    terms = ((dist, (0, 1)), (dist, (1, 2)), (potts, (2, 3)), (potts, (3, 4)))
    assert solve_mincut(VcspInstance(5, terms), (0, 1, 2)) is None
    assert templates == ["dist", "potts"]


def test_cut_template_decides_submodularity_as_the_pair_scan():
    # the template refuses a table exactly when the min/max pair of the
    # order violates it, on integer and half-valued tables up to d = 8
    rng = random.Random(1978)
    outcomes = {True: 0, False: 0}
    for k in range(2000):
        d = rng.randint(2, 8)
        order = random_order(rng, d)
        if k % 2:
            table = list(random_cost_function(rng, "f", d, 2).table)
        else:
            table = list(random_submodular_binary(rng, "f", d, order).table)
        if rng.random() < 0.5:  # one entry up, often across the boundary
            table[rng.randrange(d * d)] += 1
        if k % 4 < 2:  # halves, plus a half-valued unary on the first node
            unary = [Fraction(rng.randint(0, 3), 2) for _ in range(d)]
            table = [Fraction(v, 2) + unary[i // d] for i, v in enumerate(table)]
        f = CostFunction(f"b{k}", 2, d, tuple(table))
        submodular = dichotomy._check_function(min_max_pair(order), f) is None
        assert (solver._cut_template(f, order) is not None) == submodular, (f, order)
        outcomes[submodular] += 1
    assert min(outcomes.values()) >= 500, outcomes


def test_mincut_submodularity_check_matches_oracle():
    # the classifier's multimorphism check finds the oracle scan's first
    # violating pair, and the solver refuses exactly the violated tables
    rng = random.Random(2718)
    mismatches = 0
    violated = 0
    for k in range(300):
        d = rng.randint(2, 4)
        f = random_cost_function(rng, f"b{k}", d, 2)
        order = tuple(rng.sample(range(d), d))
        expected = submodularity_violation(f, order)
        hit = dichotomy._check_function(min_max_pair(order), f)
        mismatches += expected != (None if hit is None else (hit.x, hit.y))
        violated += expected is not None
        refused = solve_mincut(VcspInstance(2, ((f, (0, 1)),)), order) is None
        assert refused == (expected is not None), (f, order)
    assert mismatches == 0
    assert 0 < violated < 300


def test_mincut_refuses_ternary_terms():
    t = CostFunction("t", 3, 2, tuple(0 for _ in range(8)))
    inst = VcspInstance(3, ((t, (0, 1, 2)),))
    assert solve_mincut(inst, (0, 1)) is None


def test_mincut_refuses_an_order_that_is_not_a_permutation():
    with pytest.raises(InputError, match=r"order \(0, 0\) is not a permutation of 0..1"):
        solve_mincut(two_node_instance(), (0, 0))


def test_mincut_folds_repeated_scope_into_unary():
    sub = CostFunction("sub", 2, 2, (2, 1, 3, 0))
    assert submodularity_violation(sub, (0, 1)) is None
    inst = VcspInstance(1, ((sub, (0, 0)),))
    result = solve_mincut(inst, (0, 1))
    assert result.cost == 0 and result.assignment == (1,)


def test_mincut_adds_constant_terms():
    dist3 = CostFunction("dist3", 2, 3, tuple(abs(x - y) for x in range(3) for y in range(3)))
    const = CostFunction("c", 0, 3, (5,))
    inst = VcspInstance(2, ((dist3, (0, 1)), (const, ())))
    result = solve_mincut(inst, (0, 1, 2))
    expected = brute_force(inst)
    assert (result.assignment, result.cost) == (expected.assignment, expected.cost) == ((0, 0), 5)
    cls = Classification(verdict=TRACTABLE, submodular_order=(0, 1, 2))
    assert solve(inst, cls).method == "min_cut"
    nodeless = VcspInstance(0, ((const, ()),))
    assert solve_mincut(nodeless, (0, 1, 2)).cost == brute_force(nodeless).cost == 5


def test_mincut_handles_fractional_costs():
    u = CostFunction("u", 1, 2, (Fraction(1, 3), Fraction(1, 2)))
    b = CostFunction("b", 2, 2, (0, Fraction(5, 7), Fraction(5, 7), 0))
    inst = VcspInstance(2, ((u, (0,)), (u, (1,)), (b, (0, 1))))
    result = solve_mincut(inst, (0, 1))
    assert result.cost == brute_force(inst).cost == Fraction(2, 3)


def test_mincut_matches_brute_force_on_random_corpus():
    rng = random.Random(606)
    for _ in range(60):
        inst, order, d = random_submodular_instance(rng, max_nodes=5, max_domain=4)
        a = solve_mincut(inst, order)
        b = brute_force(inst)
        assert a.cost == b.cost
        assert evaluate(inst, a.assignment) == a.cost


def random_routing_instance(rng):
    """Terms of arity 0-3 over a few shared tables: integer or half-valued,
    some with an INF entry, binary ones often submodular under the order,
    on scopes that may repeat a node."""
    d = rng.choice((2, 3))
    n = rng.randint(1, 5 if d == 2 else 4)
    order = random_order(rng, d)
    tables = []
    for k in range(rng.randint(1, 4)):
        arity = rng.choice((0, 1, 1, 2, 2, 2, 2, 3))
        if arity == 2 and rng.random() < 0.7:
            table = list(random_submodular_binary(rng, "f", d, order).table)
        else:
            table = list(random_cost_function(rng, "f", d, arity).table)
        if rng.random() < 0.4:
            table = [Fraction(v, 2) for v in table]
        if rng.random() < 0.12:
            table[rng.randrange(len(table))] = INF
        tables.append(CostFunction(f"t{k}", arity, d, tuple(table)))
    terms = []
    for _ in range(rng.randint(0, 6)):
        f = rng.choice(tables)
        node = rng.randrange(n)
        if f.arity == 2 and rng.random() < 0.25:
            scope = (node, node)
        else:
            scope = tuple(rng.randrange(n) for _ in range(f.arity))
        terms.append((f, scope))
    return VcspInstance(n, tuple(terms)), order, d


def test_mincut_takes_exactly_the_instances_the_oracle_decision_allows():
    # None exactly when a table has arity above 2 or an INF entry, a binary
    # table on two distinct nodes is not submodular under the order, or
    # there are no terms; otherwise the enumerated optimum
    rng = random.Random(4242)
    seen = dict.fromkeys(("taken", "no_terms", "arity3", "inf", "violation", "violation_on_a_loop"), 0)
    for _ in range(1500):
        inst, order, d = random_routing_instance(rng)
        tables = [f for f, _ in inst.terms]
        reasons = {
            "no_terms": not inst.terms,
            "arity3": any(f.arity > 2 for f in tables),
            "inf": any(v is INF for f in tables for v in f.table),
            "violation": any(
                f.arity == 2 and scope[0] != scope[1] and submodularity_violation(f, order)
                for f, scope in inst.terms
            ),
        }
        result = solve_mincut(inst, order)
        assert (result is None) == any(reasons.values()), (inst, order)
        for reason, holds in reasons.items():
            seen[reason] += holds
        if result is None:
            continue
        seen["taken"] += 1
        seen["violation_on_a_loop"] += any(
            f.arity == 2 and scope[0] == scope[1] and submodularity_violation(f, order)
            for f, scope in inst.terms
        )
        assert result.method == "min_cut"
        assert result.cost == min_cost(inst, d)[0] == evaluate(inst, result.assignment)
    assert min(seen.values()) >= 40, seen


# ------------------------------------------------------------------ dispatch


def test_solve_dispatches_to_mincut_for_tractable_order():
    cls = Classification(verdict=TRACTABLE, submodular_order=(0, 1))
    result = solve(two_node_instance(), cls)
    assert result.method == "min_cut" and result.cost == 2


def test_solve_falls_back_without_order():
    cls = Classification(verdict=NP_HARD)
    result = solve(two_node_instance(), cls)
    assert result.method == "elimination" and result.cost == 2


def test_solve_falls_back_for_ternary_terms():
    t = CostFunction("t", 3, 2, tuple(range(8)))
    inst = VcspInstance(3, ((t, (0, 1, 2)),))
    cls = Classification(verdict=TRACTABLE, submodular_order=(0, 1))
    result = solve(inst, cls)
    assert result.method == "elimination"


# solve's budget error wraps elimination's with the route and the ways to raise it
NO_ROUTE = r"no polynomial route .*{}.* \(raise it with --brute-budget or CVCSP_BRUTE_BUDGET\)"


def test_solve_raises_intractable_at_scale():
    # a 12-node clique: both 4^12 assignments and its elimination tables
    # exceed the budget
    b = CostFunction("b", 2, 4, tuple(range(16)))
    inst = VcspInstance(12, tuple((b, (i, j)) for i in range(12) for j in range(i + 1, 12)))
    cls = Classification(verdict=NP_HARD)
    with pytest.raises(BudgetExceeded, match=NO_ROUTE.format("exact-enumeration budget 1000")):
        solve(inst, cls, budget=1000)


def test_solve_budget_bounds_elimination_before_enumeration():
    # 12 independent unaries eliminate in 48 table entries, where
    # enumeration would need 4^12 assignments
    u = CostFunction("u", 1, 4, (3, 1, 2, 1))
    inst = VcspInstance(12, tuple((u, (i,)) for i in range(12)))
    cls = Classification(verdict=NP_HARD)
    result = solve(inst, cls, budget=48)
    assert result.method == "elimination" and result.assignment == (1,) * 12
    assert result.stats == {"width": 0, "table_entries": 48}
    with pytest.raises(BudgetExceeded, match=NO_ROUTE.format("budget 47")):
        solve(inst, cls, budget=47)


def test_solve_eliminates_where_only_the_assignments_fit_the_budget():
    # a 10-node d=2 Potts clique: its elimination tables hold 2^11 - 2
    # entries, over a budget of 2^10, and its 2^10 assignments fit it
    potts = CostFunction("potts", 2, 2, (0, 1, 1, 0))
    u = CostFunction("u", 1, 2, (1, 0))
    pairs = tuple((potts, (i, j)) for i in range(10) for j in range(i + 1, 10))
    inst = VcspInstance(10, pairs + ((u, (3,)),))
    cls = Classification(verdict=NP_HARD)
    result = solve(inst, cls, budget=1 << 10)
    expected = brute_force(inst, budget=1 << 10)
    assert result.method == "elimination" and result.stats["table_entries"] == (1 << 11) - 2
    assert repr((result.assignment, result.cost)) == repr((expected.assignment, expected.cost))
    needs = NO_ROUTE.format(f"elimination needs {(1 << 11) - 2} table entries")
    with pytest.raises(BudgetExceeded, match=needs):
        solve(inst, cls, budget=(1 << 10) - 1)


def test_mincut_builds_indicators_for_touched_nodes_only(monkeypatch):
    dist = CostFunction("dist", 2, 4, tuple(abs(x - y) for x in range(4) for y in range(4)))
    u = CostFunction("u", 1, 4, (3, 3, 0, 3))
    order = (3, 2, 1, 0)  # untouched nodes take label 3
    terms = ((dist, (5, 1999)), (u, (1999,)), (dist, (700, 5)))
    compact = VcspInstance(3, ((dist, (0, 2)), (u, (2,)), (dist, (1, 0))))
    node_counts = []
    real_max_flow = solver.max_flow

    def counting_max_flow(network, source, sink):
        node_counts.append(len(network.adjacency))
        return real_max_flow(network, source, sink)

    monkeypatch.setattr(solver, "max_flow", counting_max_flow)
    result = solve_mincut(VcspInstance(2000, terms), order)
    small = solve_mincut(compact, order)
    assert node_counts == [2 + 3 * 3, 2 + 3 * 3]
    expected = [order[0]] * 2000
    expected[5], expected[700], expected[1999] = small.assignment
    assert result.assignment == tuple(expected)
    assert result.cost == small.cost and result.stats == small.stats
