import random
from fractions import Fraction

import pytest

from cvcsp.model import (
    INF,
    CostFunction,
    InputError,
    Language,
    VcspInstance,
    as_cost,
    evaluate,
)
from corpus import random_cost_function
from oracles import (
    conservative_commutative_pairs,
    fixed_value_unary,
    shift_costs,
    validate_language,
)


def dist3():
    return CostFunction("dist", 2, 3, tuple(abs(x - y) for x in range(3) for y in range(3)))


def test_infinite_cost_ordering_and_absorption():
    assert INF > 5 and INF > Fraction(7, 2)
    assert not (INF < INF) and INF == INF
    assert 3 < INF and not (3 > INF)
    assert INF + 4 is INF and Fraction(1, 2) + INF is INF
    assert sum([1, INF, 2]) is INF
    assert min(INF, 3) == 3 and max(INF, 3) is INF


@pytest.mark.parametrize("finite", [0, 7, Fraction(7, 2)])
def test_infinite_cost_compares_in_both_operand_orders(finite):
    # each comparison with INF on either side goes through one of its four methods
    assert (finite < INF, finite <= INF, finite > INF, finite >= INF) == (True, True, False, False)
    assert (INF < finite, INF <= finite, INF > finite, INF >= finite) == (False, False, True, True)
    assert (INF < INF, INF <= INF, INF > INF, INF >= INF) == (False, True, False, True)


@pytest.mark.parametrize("other", [1.5, "inf"])
@pytest.mark.parametrize("compare", [
    lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b,
])
def test_infinite_cost_does_not_compare_with_floats_or_strings(other, compare):
    with pytest.raises(TypeError):
        compare(INF, other)
    with pytest.raises(TypeError):
        compare(other, INF)


def test_as_cost_normalizes_and_rejects():
    assert as_cost(Fraction(4, 2)) == 2 and isinstance(as_cost(Fraction(4, 2)), int)
    assert as_cost(Fraction(5, 2)) == Fraction(5, 2)
    with pytest.raises(InputError):
        as_cost(-1)
    with pytest.raises(InputError):
        as_cost(0.5)


def test_evaluate_distance_term():
    inst = VcspInstance(2, ((dist3(), (0, 1)),))
    assert evaluate(inst, (0, 2)) == 2


def test_evaluate_empty_terms_is_zero():
    inst = VcspInstance(3, ())
    assert evaluate(inst, (0, 1, 2)) == 0


def test_evaluate_absorbs_infinity():
    g = CostFunction("g", 2, 2, (0, 0, 0, INF))
    inst = VcspInstance(2, ((g, (0, 1)),))
    assert evaluate(inst, (1, 1)) is INF


def test_evaluate_rejects_out_of_range_labels():
    inst = VcspInstance(2, ((dist3(), (0, 1)),))
    with pytest.raises(InputError):
        evaluate(inst, (0, 5))
    # the first bad label in scope order is named; node 2 is in no term's
    # scope, so its label is never read
    inst = VcspInstance(3, ((dist3(), (1, 0)),))
    for x, bad in (((0, 5, 0), 5), ((-1, 0, 0), -1), ((9, 7, 0), 7)):
        with pytest.raises(InputError) as exc:
            evaluate(inst, x)
        assert str(exc.value) == f"label {bad} outside domain 0..2"
    assert evaluate(inst, (1, 2, 7)) == 1


def test_infinity_absorption_on_random_instances():
    rng = random.Random(7)
    for _ in range(50):
        d = rng.randint(2, 4)
        fns = [random_cost_function(rng, f"f{i}", d, rng.randint(1, 2), inf_prob=0.2)
               for i in range(2)]
        n = rng.randint(1, 4)
        terms = tuple(
            (f, tuple(rng.randrange(n) for _ in range(f.arity))) for f in fns
        )
        inst = VcspInstance(n, terms)
        x = tuple(rng.randrange(d) for _ in range(n))
        per_term = [f.value(tuple(x[i] for i in scope)) for f, scope in terms]
        assert (evaluate(inst, x) is INF) == any(v is INF for v in per_term)


def test_evaluate_is_reproducible_with_fractions():
    f = CostFunction("f", 1, 2, (Fraction(1, 3), Fraction(2, 7)))
    inst = VcspInstance(2, ((f, (0,)), (f, (1,))))
    first = evaluate(inst, (0, 1))
    assert first == evaluate(inst, (0, 1)) == Fraction(1, 3) + Fraction(2, 7)


def test_validate_language_clean_and_mode():
    lang = Language(3, (dist3(),))
    report = validate_language(lang)
    assert report.ok and report.mode == "finite_valued"
    general = Language(2, (CostFunction("g", 2, 2, (0, 0, 0, INF)),))
    assert validate_language(general).mode == "general_valued"


def test_cost_function_table_size_is_checked():
    with pytest.raises(InputError):
        CostFunction("bad", 2, 2, (0, 1, 2))


def test_shift_costs_examples():
    f = CostFunction("f", 2, 2, (0, 1, 1, 0))
    shifted = shift_costs(f, 2)
    assert shifted.table == (2, 3, 3, 2)
    g = CostFunction("g", 2, 2, (0, 1, 1, INF))
    assert shift_costs(g, 1).table == (1, 2, 2, INF)
    with pytest.raises(InputError):
        shift_costs(f, -1)


def test_fixed_value_unary_examples():
    assert fixed_value_unary(0, 1, 2).table == (0, 1)
    assert fixed_value_unary(1, Fraction(5, 2), 3).table == (
        Fraction(5, 2),
        0,
        Fraction(5, 2),
    )
    with pytest.raises(InputError):
        fixed_value_unary(0, 0, 2)


def test_unary_equality_under_every_conservative_pair():
    # conservativity permutes {a, b}, so unary sums are invariant
    rng = random.Random(11)
    for d in (2, 3):
        unaries = [
            tuple(rng.randint(0, 6) for _ in range(d)) for _ in range(4)
        ]
        for meet, join in conservative_commutative_pairs(d):
            for u in unaries:
                for a in range(d):
                    for b in range(d):
                        lhs = u[meet[a * d + b]] + u[join[a * d + b]]
                        assert lhs == u[a] + u[b]


def test_scope_validation():
    with pytest.raises(InputError):
        VcspInstance(2, ((dist3(), (0, 5)),))
    with pytest.raises(InputError):
        VcspInstance(2, ((dist3(), (0,)),))


def test_instance_terms_share_one_domain_size():
    # brute force and elimination index every table with one domain size:
    # over d = 2 and d = 3 both answered 5, though label 2 costs 0
    a = CostFunction("a", 1, 2, (0, 0))
    b = CostFunction("b", 1, 3, (5, 5, 0))
    with pytest.raises(InputError) as exc:
        VcspInstance(2, ((a, (0,)), (b, (1,))))
    assert str(exc.value) == "terms[1]: domain size 3 != 2 of terms[0]"
    with pytest.raises(InputError) as exc:
        VcspInstance(2, ((b, (1,)), (a, (0,))))
    assert str(exc.value) == "terms[1]: domain size 2 != 3 of terms[0]"


def test_domain_and_arity_limits():
    with pytest.raises(InputError):
        CostFunction("big", 1, 17, tuple(0 for _ in range(17)))
    for d in (-2, 0, 1, 17):
        with pytest.raises(InputError):
            Language(d, ())
    with pytest.raises(InputError):
        CostFunction("wide", 5, 2, tuple(0 for _ in range(32)))
