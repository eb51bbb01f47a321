import itertools
import random

import pytest

from cvcsp.model import INF, CostFunction, InputError, Language
from cvcsp.express import (
    PoolBudget,
    _pin,
    _projection,
    enumerate_binary_pool,
    min_chain,
    transpose_view,
)
from corpus import random_cost_function, random_finite_language
from oracles import (
    base_view,
    pin_coordinate,
    pin_leaks,
    project_min,
    sum_finite,
    symmetrize,
    view_table_by_replay,
)


def test_symmetrize_adds_transposed_entries():
    f = CostFunction("f", 2, 2, (0, 3, 1, 0))
    g = symmetrize(f)
    assert g.value(0, 1) == 4 and g.value(1, 0) == 4


def test_symmetrize_of_symmetric_doubles():
    f = CostFunction("f", 2, 2, (1, 2, 2, 5))
    g = symmetrize(f)
    assert g.table.table == (2, 4, 4, 10)


def test_symmetrize_absorbs_infinity():
    f = CostFunction("f", 2, 2, (0, INF, 0, 0))
    g = symmetrize(f)
    assert g.value(0, 1) is INF and g.value(1, 0) is INF


def test_symmetrize_rejects_non_binary():
    with pytest.raises(InputError):
        symmetrize(CostFunction("u", 1, 2, (0, 1)))


def test_project_min_identity_and_transpose():
    f = CostFunction("f", 2, 2, (0, 3, 1, 0))
    assert project_min(f, (0, 1)).table.table == f.table
    assert project_min(f, (1, 0)).table.table == (0, 1, 3, 0)
    assert _projection(f, 1, 0) == (0, 1, 3, 0)


def test_project_min_ternary_sum():
    f = CostFunction(
        "s", 3, 2, tuple(x + y + z for x in range(2) for y in range(2) for z in range(2))
    )
    g = project_min(f, (0, 1))
    # brute-force the projection to confirm the frozen table
    expected = []
    for x in range(2):
        for y in range(2):
            expected.append(min(f.value((x, y, z)) for z in range(2)))
    assert list(g.table.table) == expected == [0, 1, 1, 2]
    assert list(_projection(f, 0, 1)) == expected


def test_project_min_rejects_bad_indices():
    f = CostFunction("f", 2, 2, (0, 1, 1, 0))
    with pytest.raises(InputError):
        project_min(f, (0, 0))


def test_project_min_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        d = rng.randint(2, 3)
        f = random_cost_function(rng, "f", d, 3, inf_prob=0.1)
        for keep in itertools.permutations(range(3), 2):
            once = project_min(f, keep)
            again = project_min(once.table, (0, 1))
            assert again.table.table == once.table.table


def test_pin_matches_restriction_when_finite():
    f = CostFunction(
        "t", 3, 2, tuple((x + 1) * (y + 2) + z for x in range(2) for y in range(2) for z in range(2))
    )
    g = pin_coordinate(f, 2, 0)
    for x in range(2):
        for y in range(2):
            assert g.value((x, y)) == f.value((x, y, 0))
    assert not pin_leaks(f, 2, 0)
    assert _pin(f.table, 3, 2, 2, 0) == (g.table, 1 + sum_finite(f), False)


def test_pin_penalty_leak_detected():
    # row f(0, .) is infinite, so pinning coordinate 0 to 0 leaks the penalty
    f = CostFunction("f", 2, 2, (INF, INF, 3, 4))
    g = pin_coordinate(f, 0, 0)
    C = 1 + 7
    assert g.table == (3 + C, 4 + C)
    assert pin_leaks(f, 0, 0)
    assert _pin(f.table, 2, 2, 0, 0) == ((3 + C, 4 + C), C, True)


def test_pin_unary_gives_constant():
    u = CostFunction("u", 1, 3, (4, 1, 7))
    g = pin_coordinate(u, 0, 1)
    assert g.arity == 0 and g.table == (1,)
    assert _pin(u.table, 1, 3, 0, 1)[0] == (1,)


def test_min_chain_equality_indicator():
    neq = CostFunction("neq", 2, 2, (0, 1, 1, 0))
    h = min_chain(base_view(neq), base_view(neq), (0, 1))
    assert h.value(0, 0) == 0 and h.value(0, 1) == 1


def test_min_chain_zero_left_operand():
    zero = CostFunction("z", 2, 3, tuple(0 for _ in range(9)))
    g = CostFunction("g", 2, 3, tuple(range(9)))
    h = min_chain(base_view(zero), base_view(g), (0, 2))
    for x in range(3):
        for z in range(3):
            assert h.value(x, z) == min(g.value((0, z)), g.value((2, z)))


def test_pool_contains_base_transpose_symmetrization():
    f = CostFunction("f", 2, 2, (0, 3, 1, 0))
    pool = enumerate_binary_pool(Language(2, (f,)))
    tables = {v.table.table for v in pool.views}
    assert f.table in tables
    assert (0, 1, 3, 0) in tables  # transpose
    assert (0, 4, 4, 0) in tables  # symmetrization


def test_pool_counts_pinned_views_for_ternary():
    # generic ternary over {0,1} whose 12 pinned slices and 6 projections
    # are pairwise distinct: 2^index spreads the slices apart and the
    # parity bump moves every projection off every slice
    table = []
    for x in range(2):
        for y in range(2):
            for z in range(2):
                table.append(2 ** (4 * x + 2 * y + z) + (1000 if (x + y + z) % 2 else 0))
    f = CostFunction("t", 3, 2, tuple(table))
    pool = enumerate_binary_pool(Language(2, (f,)), PoolBudget(max_views=256, chain_depth=0))
    pinned = [v for v in pool.views if v.provenance[0] == "pin_project"]
    projected = [v for v in pool.views if v.provenance[0] == "project_min"]
    assert len(pinned) == 12
    assert len(projected) == 6


def test_pool_empty_language():
    pool = enumerate_binary_pool(Language(2, ()))
    assert pool.views == () and not pool.truncated


def test_pool_budget_truncation_flag():
    f = CostFunction("f", 2, 3, tuple(abs(x - y) for x in range(3) for y in range(3)))
    pool = enumerate_binary_pool(Language(3, (f,)), PoolBudget(max_views=2))
    assert pool.truncated and len(pool.views) == 2


def test_chain_stops_once_a_pass_adds_no_view(monkeypatch):
    # a pass that adds nothing leaves the next pass the same views, so the
    # parity language's two views take one pass of 2 x 2 operand pairs
    import cvcsp.express as express

    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    original = express._chain_sums
    monkeypatch.setattr(express, "_chain_sums", counting)
    lang = Language(2, (CostFunction("x", 2, 2, (0, 1, 1, 0)),))
    deep = enumerate_binary_pool(lang, PoolBudget(chain_depth=1000))
    assert len(calls) == 4 and len(deep.views) == 2
    assert deep == enumerate_binary_pool(lang, PoolBudget(chain_depth=1))


def test_pool_deterministic():
    rng = random.Random(9)
    lang = random_finite_language(rng)
    a = enumerate_binary_pool(lang, PoolBudget(max_views=40))
    b = enumerate_binary_pool(lang, PoolBudget(max_views=40))
    assert [v.provenance for v in a.views] == [v.provenance for v in b.views]
    assert [v.table.table for v in a.views] == [v.table.table for v in b.views]


def test_pool_soundness_views_replay_exactly():
    # every view table must equal its derivation replayed as an instance
    # and minimized over the auxiliary nodes with the generic evaluator
    rng = random.Random(17)
    for case in range(6):
        lang = random_finite_language(rng, max_domain=3, max_functions=2, max_arity=3)
        pool = enumerate_binary_pool(lang, PoolBudget(max_views=24, chain_depth=1))
        for view in pool.views:
            assert view_table_by_replay(view.provenance, lang) == view.table.table


def test_pool_soundness_with_infinite_entries():
    rng = random.Random(23)
    for case in range(4):
        d = rng.randint(2, 3)
        fns = tuple(
            random_cost_function(rng, f"f{i}", d, rng.randint(2, 3), inf_prob=0.25)
            for i in range(2)
        )
        lang = Language(d, fns)
        pool = enumerate_binary_pool(lang, PoolBudget(max_views=20, chain_depth=1))
        for view in pool.views:
            assert view_table_by_replay(view.provenance, lang) == view.table.table


def test_symmetrize_output_is_transposition_invariant():
    rng = random.Random(29)
    for _ in range(10):
        d = rng.randint(2, 4)
        f = random_cost_function(rng, "f", d, 2, inf_prob=0.2)
        g = symmetrize(f)
        assert transpose_view(g).table.table == g.table.table


def test_transpose_involution():
    rng = random.Random(31)
    f = random_cost_function(rng, "f", 3, 2, inf_prob=0.2)
    v = base_view(f)
    assert transpose_view(transpose_view(v)).table.table == f.table


def test_exchange_sign_invariant_under_unaries():
    # adding unaries to either argument cannot change which quadruples
    # witness the strict exchange inequality
    rng = random.Random(41)
    for _ in range(30):
        d = rng.randint(2, 4)
        g = random_cost_function(rng, "g", d, 2, inf_prob=0.15)
        u1 = [rng.randint(0, 5) for _ in range(d)]
        u2 = [rng.randint(0, 5) for _ in range(d)]
        from cvcsp.express import add_unaries_view

        shifted = add_unaries_view(base_view(g), u1, u2)
        for a, b, a2, b2 in itertools.product(range(d), repeat=4):
            if a == b or a2 == b2:
                continue
            before = _exchange_sign(g.table, d, a, b, a2, b2)
            after = _exchange_sign(shifted.table.table, d, a, b, a2, b2)
            assert before == after


def _exchange_sign(t, d, a, b, a2, b2):
    lhs = t[a * d + a2] + t[b * d + b2]
    rhs = t[a * d + b2] + t[b * d + a2]
    if lhs is INF and rhs is INF:
        return "both-inf"
    if lhs > rhs:
        return "gt"
    if lhs == rhs:
        return "eq"
    return "lt"
