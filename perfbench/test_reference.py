"""Tests of the benchmark's reference checks.

    python3 -m pytest perfbench -q

Hand-worked cases first, then the reference oracles against each other and
against `cvcsp.classify` on seeded random languages.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402

INF = ref.INF


def table(d, fn):
    return [fn(x, y) for x in range(d) for y in range(d)]


DIST3 = table(3, lambda x, y: Fraction(abs(x - y)))
POTTS3 = table(3, lambda x, y: Fraction(int(x != y)))


def test_dist_has_a_pair_and_potts_has_none():
    for oracle in (ref.stp_exists_binary, ref.stp_exists_exhaustive):
        assert oracle(3, [(2, DIST3)])
        assert not oracle(3, [(2, POTTS3)])


def test_potts_on_two_labels_is_submodular():
    potts2 = table(2, lambda x, y: Fraction(int(x != y)))
    assert ref.stp_exists_binary(2, [(2, potts2)])


def test_min_max_checks_against_hand_worked_orders():
    meet, join = ref.min_max_tables((0, 1, 2), 3)
    assert meet == [0, 0, 0, 0, 1, 1, 0, 1, 2]
    assert ref.is_conservative_commutative(meet, join, 3)
    assert ref.is_multimorphism(meet, join, 3, [(2, DIST3)])
    assert not ref.is_multimorphism(meet, join, 3, [(2, POTTS3)])
    # the order 0 < 2 < 1 breaks dist: x = (1, 0), y = (2, 1)
    meet, join = ref.min_max_tables((0, 2, 1), 3)
    assert not ref.is_multimorphism(meet, join, 3, [(2, DIST3)])


def test_pair_enumeration_counts_and_shapes():
    meets, joins = ref.all_commutative_pairs(3)
    assert meets.shape == (8, 9)
    assert all(ref.is_conservative_commutative(m, j, 3) for m, j in zip(meets.tolist(), joins.tolist()))
    assert len({tuple(m) for m in meets.tolist()}) == 8


def test_soft_exchange_violation():
    equal = table(2, lambda x, y: Fraction(int(x == y)))
    assert ref.soft_exchange_violation(2, equal, 0, 1)
    assert not ref.soft_exchange_violation(3, DIST3, 0, 1)
    nand = [Fraction(0), Fraction(0), Fraction(0), INF]
    assert ref.soft_exchange_violation(2, nand, 0, 1)
    hard = [INF, Fraction(0), Fraction(0), INF]  # both aligned entries infinite
    assert not ref.soft_exchange_violation(2, hard, 0, 1)


def test_parse_cost():
    assert ref.parse_cost(3) == 3
    assert ref.parse_cost("7/2") == Fraction(7, 2)
    assert ref.parse_cost("inf") is INF


def test_graph_values():
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    c5 = [(v, (v + 1) % 5) for v in range(5)]
    assert ref.max_cut(4, k4) == 4
    assert ref.max_independent_set(5, c5) == 2
    assert ref.max_cut(5, c5) == 4
    assert ref.max_independent_set(4, k4) == 1


def test_instance_optimum_and_evaluate():
    half = [Fraction(1, 2), Fraction(0), INF, Fraction(3)]
    terms = [(half, (0, 1)), ([Fraction(1), Fraction(0)], (1,))]
    # x = (0, 1): 0 + 0; x = (0, 0): 1/2 + 1
    assert ref.instance_optimum(2, 2, terms) == 0
    assert ref.evaluate(2, terms, (0, 0)) == Fraction(3, 2)
    assert ref.evaluate(2, terms, (1, 0)) is INF
    assert ref.instance_optimum(2, 1, [([INF, INF], (0,))]) is INF


def test_grid_min_cut_matches_enumeration():
    rng = random.Random(4)
    for d, w, h in ((2, 2, 3), (3, 2, 3), (4, 3, 3), (3, 1, 4)):
        unaries = [[rng.randint(0, 5) for _ in range(d)] for _ in range(w * h)]
        edges = [(r * w + c, r * w + c + 1) for r in range(h) for c in range(w - 1)]
        edges += [(r * w + c, (r + 1) * w + c) for r in range(h - 1) for c in range(w)]
        dist = table(d, lambda x, y: Fraction(abs(x - y)))
        terms = [([Fraction(c) for c in u], (v,)) for v, u in enumerate(unaries)]
        terms += [(dist, e) for e in edges]
        assert ref.grid_l1_optimum(d, unaries, edges) == ref.instance_optimum(d, w * h, terms)


def random_binary_language(rng, inf_prob=0.0):
    d = rng.randint(2, 4)
    fns = []
    for _ in range(rng.randint(1, 3)):
        entries = [INF if rng.random() < inf_prob else Fraction(rng.randint(0, 4)) for _ in range(d * d)]
        fns.append((2, entries))
    return d, fns


def test_parity_oracle_matches_exhaustive_enumeration():
    rng = random.Random(11)
    for _ in range(300):
        d, fns = random_binary_language(rng, inf_prob=rng.choice((0.0, 0.2)))
        assert ref.stp_exists_binary(d, fns) == ref.stp_exists_exhaustive(d, fns)


def test_parity_oracle_matches_classify_on_300_binary_languages():
    from cvcsp import CostFunction, Language, classify
    from cvcsp.model import INF as CVCSP_INF

    rng = random.Random(2024)
    mismatches = []
    for k in range(300):
        d, fns = random_binary_language(rng)
        lang = Language(d, tuple(
            CostFunction(f"f{i}", 2, d, tuple(CVCSP_INF if v is INF else int(v) for v in t))
            for i, (_, t) in enumerate(fns)
        ))
        tractable = classify(lang).verdict == "TRACTABLE"
        if tractable != ref.stp_exists_binary(d, fns):
            mismatches.append(k)
    assert mismatches == []


def test_violated_candidates_handles_ternary_tables():
    # f = [x != y] + [y != z] is submodular on two labels; g = [x == y] is
    # not: x = (0, 1, 0), y = (1, 0, 0) give 1 + 1 > 0 + 0
    f = [Fraction(int(x != y) + int(y != z)) for x, y, z in np.ndindex(2, 2, 2)]
    g = [Fraction(int(x == y)) for x, y, z in np.ndindex(2, 2, 2)]
    meet, join = ref.min_max_tables((0, 1), 2)
    assert ref.is_multimorphism(meet, join, 2, [(3, f)])
    assert not ref.is_multimorphism(meet, join, 2, [(3, g)])
