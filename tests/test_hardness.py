import random

import pytest

from cvcsp.model import INF, CostFunction, InputError
from cvcsp.hardness import (
    Decoder,
    SourceGraph,
    exact_max_cut,
    exact_max_independent_set,
    normalize_witness,
    reduce_maxcut,
    reduce_mis,
    verify_reduction,
    witness_from_loop,
)
from cvcsp.solver import brute_force
from oracles import base_view, independent_set_value, max_cut_value, witness_block


def view_of(table, d=2, name="f"):
    return base_view(CostFunction(name, 2, d, tuple(table)))


def canonical_xor_witness():
    # h(a,a) = h(b,b) = 1, h(a,b) = h(b,a) = 0
    return normalize_witness(view_of((1, 0, 0, 1)), 0, 1)


def canonical_mis_witness():
    return normalize_witness(view_of((0, 0, 0, INF)), 0, 1)


def random_graph(rng, n):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    return SourceGraph(n, tuple(edges))


# ------------------------------------------------------------- normalization


def test_normalize_equality_cost_already_canonical():
    w = canonical_xor_witness()
    assert w.kind == "both_finite"
    # already symmetric, so the table is used as-is
    assert witness_block(w) == (1, 0, 0, 1)


def test_normalize_balances_unequal_diagonals():
    # diagonals 2 and 4 with off-diagonal 1: half-gap unary on the cheap
    # label lifts the block to (4, 2, 2, 4)
    view = view_of((2, 1, 1, 4))
    w = normalize_witness(view, 0, 1)
    assert w.kind == "both_finite"
    assert witness_block(w) == (4, 2, 2, 4)


def test_normalize_one_infinite_already_canonical():
    w = canonical_mis_witness()
    assert w.kind == "one_infinite"
    assert witness_block(w) == (0, 0, 0, INF)


def test_normalize_one_infinite_orients_infinite_corner_second():
    w = normalize_witness(view_of((INF, 0, 0, 0)), 0, 1)
    assert w.kind == "one_infinite" and w.pair_node == (1, 0)
    assert w.normalized.value(1, 1) == 0 and w.normalized.value(0, 0) is INF


def test_normalize_one_infinite_shifts_flat_block_to_zero():
    w = normalize_witness(view_of((2, 2, 2, INF)), 0, 1)
    assert w.kind == "one_infinite"
    assert witness_block(w) == (0, 0, 0, INF)


@pytest.mark.parametrize(
    "table, d, unary, shift",
    [
        # g(s,s) = 1 above g(s,t) = 0: u(t) = 1 lifts the off-diagonal to 1
        ((1, 0, 0, INF), 2, (0, 1), 1),
        # g(s,s) = 0 below g(s,t) = 2: u(s) = 2 lifts the diagonal to 4
        ((0, 2, 2, INF), 2, (2, 0), 4),
        # the third label goes one above the level 4
        ((0, 2, 7, 2, INF, 0, 7, 0, 3), 3, (2, 0, 5), 4),
    ],
)
def test_normalize_levels_uneven_infinite_block(table, d, unary, shift):
    w = normalize_witness(view_of(table, d=d), 0, 1)
    assert w.kind == "one_infinite" and w.pair_node == (0, 1)
    assert witness_block(w) == (0, 0, 0, INF)
    prov = w.normalized.provenance
    assert prov[0] == "shift" and prov[2] == -shift
    assert prov[1][0] == "add_unaries" and prov[1][2] == prov[1][3] == unary


def test_normalize_flat_infinite_block_gets_no_unary():
    w = normalize_witness(view_of((2, 2, 2, INF)), 0, 1)
    assert w.normalized.provenance == ("shift", ("base", "f"), -2)
    assert w.normalized.table.name == "shifted(f)"


def test_normalize_rejects_non_witness():
    with pytest.raises(InputError):
        normalize_witness(view_of((0, 1, 1, 0)), 0, 1)


def test_witness_from_loop_takes_the_first_view_of_the_kind():
    views = [
        view_of((0, 1, 1, 0), name="no_loop"),
        view_of((1, 0, 0, INF), name="bumpy"),
        view_of((1, 0, 0, 1), name="ok"),
    ]
    w = witness_from_loop(views, (0, 1), "both_finite")
    assert w.kind == "both_finite" and w.view.table.name == "ok"
    w = witness_from_loop(views, (0, 1), "one_infinite")
    assert w.kind == "one_infinite" and w.view.table.name == "bumpy"
    assert witness_from_loop(views[:1], (0, 1), "both_finite") is None


def test_witness_from_loop_normalizes_only_a_view_of_the_kind(monkeypatch):
    # the kind is read off the view's diagonals, so the one-infinite views
    # before the both-finite one are passed over without normalizing
    import cvcsp.hardness as hardness

    views = [
        view_of((1, 0, 0, INF), name="bumpy"),
        view_of((2, 2, 2, INF), name="flat"),
        view_of((1, 0, 0, 1), name="ok"),
    ]
    calls = []

    def counting(view, a, b):
        calls.append(view.table.name)
        return normalize_witness(view, a, b)

    monkeypatch.setattr(hardness, "normalize_witness", counting)
    assert witness_from_loop(views, (0, 1), "both_finite").view.table.name == "ok"
    assert calls == ["ok"]
    assert witness_from_loop(views, (0, 1), "one_infinite").view.table.name == "bumpy"
    assert calls == ["ok", "bumpy"]
    assert witness_from_loop(views[:2], (0, 1), "both_finite") is None
    assert calls == ["ok", "bumpy"]


# ---------------------------------------------------------------- reductions


def canonical_h():
    return base_view(CostFunction("h", 2, 2, (1, 0, 0, 1)))


def test_maxcut_triangle_decodes_two():
    # canonical h: optimum over K3 is 1 uncut edge -> decoded cut of 2
    w = normalize_witness(canonical_h(), 0, 1)
    k3 = SourceGraph(3, ((0, 1), (1, 2), (0, 2)))
    instance, decoder = reduce_maxcut(k3, w)
    result = brute_force(instance)
    assert max_cut_value(k3) == 2  # oracle
    assert result.cost == 1
    assert decoder.decode(result.cost) == 2


def test_maxcut_single_edge():
    w = normalize_witness(canonical_h(), 0, 1)
    g = SourceGraph(2, ((0, 1),))
    instance, decoder = reduce_maxcut(g, w)
    result = brute_force(instance)
    assert result.cost == 0 and decoder.decode(result.cost) == 1


def test_maxcut_empty_graph():
    w = normalize_witness(canonical_h(), 0, 1)
    g = SourceGraph(3, ())
    instance, decoder = reduce_maxcut(g, w)
    result = brute_force(instance)
    assert result.cost == 0 and decoder.decode(result.cost) == 0


def test_maxcut_requires_both_finite():
    with pytest.raises(InputError):
        reduce_maxcut(SourceGraph(2, ((0, 1),)), canonical_mis_witness())


def test_mis_path_three():
    w = canonical_mis_witness()
    p3 = SourceGraph(3, ((0, 1), (1, 2)))
    instance, decoder = reduce_mis(p3, w)
    result = brute_force(instance)
    assert independent_set_value(p3) == 2  # oracle
    assert result.cost == 1 and decoder.decode(result.cost) == 2
    assert result.assignment == (1, 0, 1)


def test_mis_single_vertex():
    w = canonical_mis_witness()
    g = SourceGraph(1, ())
    instance, decoder = reduce_mis(g, w)
    result = brute_force(instance)
    assert result.cost == 0 and decoder.decode(result.cost) == 1


def test_mis_triangle():
    w = canonical_mis_witness()
    k3 = SourceGraph(3, ((0, 1), (1, 2), (0, 2)))
    instance, decoder = reduce_mis(k3, w)
    result = brute_force(instance)
    assert result.cost == 2 and decoder.decode(result.cost) == 1


def test_mis_requires_one_infinite():
    w = normalize_witness(canonical_h(), 0, 1)
    with pytest.raises(InputError):
        reduce_mis(SourceGraph(2, ((0, 1),)), w)


# -------------------------------------------------------------- verification


def test_verify_reduction_ok_and_corrupted_decoder():
    w = normalize_witness(canonical_h(), 0, 1)
    k3 = SourceGraph(3, ((0, 1), (1, 2), (0, 2)))
    instance, decoder = reduce_maxcut(k3, w)
    assert verify_reduction(k3, instance, decoder, exact_max_cut) is None
    corrupted = Decoder(kind=decoder.kind, offset=decoder.offset, slope=decoder.slope + 1)
    mismatch = verify_reduction(k3, instance, corrupted, exact_max_cut)
    assert mismatch is not None and mismatch.expected == 2


def test_source_graph_validation():
    with pytest.raises(InputError):
        SourceGraph(2, ((0, 0),))
    with pytest.raises(InputError):
        SourceGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(InputError):
        SourceGraph(2, ((0, 5),))


def test_reductions_on_random_graphs_small_batch():
    rng = random.Random(303)
    wc = normalize_witness(canonical_h(), 0, 1)
    wm = canonical_mis_witness()
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7))
        inst, dec = reduce_maxcut(g, wc)
        assert dec.decode(brute_force(inst).cost) == max_cut_value(g)
        inst, dec = reduce_mis(g, wm)
        assert dec.decode(brute_force(inst).cost) == independent_set_value(g)


def test_reduction_with_wider_domain_stays_on_witness_labels():
    # same gadgets over |D|=3: the steep unary keeps label 2 out of play
    table = [0] * 9
    table[0 * 3 + 0] = 1
    table[1 * 3 + 1] = 1
    table[2 * 3 + 2] = 5
    w = normalize_witness(view_of(tuple(table), d=3), 0, 1)
    g = SourceGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    instance, decoder = reduce_maxcut(g, w)
    result = brute_force(instance)
    assert set(result.assignment) <= {0, 1}
    assert decoder.decode(result.cost) == max_cut_value(g) == 4


def _provenance_leaves(prov):
    kind = prov[0]
    if kind in ("base", "project_min", "pin_project"):
        yield prov[1]
    elif kind in ("symmetrize", "transpose", "add_unaries", "shift"):
        yield from _provenance_leaves(prov[1])
    elif kind == "min_chain":
        yield from _provenance_leaves(prov[1])
        yield from _provenance_leaves(prov[2])


def test_reduced_instances_use_only_language_closure_members():
    # every term is either the normalized witness (whose derivation bottoms
    # out in language functions) or a finite unary
    lang_fn = CostFunction("h", 2, 2, (1, 0, 0, 1))
    w = normalize_witness(base_view(lang_fn), 0, 1)
    assert set(_provenance_leaves(w.normalized.provenance)) == {"h"}
    instance, _ = reduce_maxcut(SourceGraph(3, ((0, 1), (1, 2))), w)
    for f, _scope in instance.terms:
        if f.arity == 1:
            assert f.is_finite_valued()
        else:
            assert f.table == w.normalized.table.table


def test_package_oracles_match_reference_oracles():
    rng = random.Random(404)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 8))
        assert exact_max_cut(g) == max_cut_value(g)
        assert exact_max_independent_set(g) == independent_set_value(g)
