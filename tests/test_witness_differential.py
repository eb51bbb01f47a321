"""The levelled witness normalization against the one that refused uneven
blocks.

`oracles.old_normalize_witness` refused a one-infinite witness whose finite
block is not flat, and `oracles.old_reduction_witness` is the reduce
command's choice built around that refusal: another view at the same node,
then a rescan of every looped node for the requested kind.  The library
levels every such block with a unary instead.  On seeded general-valued
binary languages, every request the old choice answered must still be
answered; where the old code normalized the classification's own witness,
the `auto` choice must be the same witness byte for byte; and every
reduction the new choice builds must decode the exact optimum of a small
random graph.
"""

import random

from cvcsp.model import Language
from cvcsp.dichotomy import classify
from cvcsp.hardness import (
    SourceGraph,
    exact_max_cut,
    exact_max_independent_set,
    reduce_maxcut,
    reduce_mis,
    verify_reduction,
)
from cvcsp.commands import reduction_witness
from corpus import random_cost_function
import oracles

KINDS = ("auto", "maxcut", "mis")


def _general_languages(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.choice((2, 3, 4))
        inf_prob = rng.choice((0.1, 0.2, 0.3, 0.4))
        functions = tuple(
            random_cost_function(rng, f"f{i}", d, 2, inf_prob=inf_prob)
            for i in range(rng.randint(1, 2))
        )
        yield Language(d, functions)


def _random_graph(rng, n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return SourceGraph(n, tuple(edges))


def _verified(witness, src):
    if witness.kind == "both_finite":
        instance, decoder = reduce_maxcut(src, witness)
        return verify_reduction(src, instance, decoder, exact_max_cut) is None
    instance, decoder = reduce_mis(src, witness)
    return verify_reduction(src, instance, decoder, exact_max_independent_set) is None


def test_levelled_witness_choice_against_the_old_choice():
    rng = random.Random(11)
    regressions, changed, failed = [], [], []
    with_witness = gained = reductions = 0
    for lang in _general_languages(1000, seed=7):
        cls = classify(lang)
        if cls.witness is None:
            continue
        with_witness += 1
        direct = oracles.old_normalize_witness(cls.witness.view, *cls.witness.node) is not None
        built = {}
        for kind in KINDS:
            old = oracles.old_reduction_witness(cls, kind)
            new = reduction_witness(cls, kind)
            if new is None:
                if old is not None:
                    regressions.append((lang, kind))
                continue
            gained += old is None
            if kind == "auto" and direct and repr(new) != repr(old):
                changed.append(lang)
            built[repr(new)] = new
        for witness in built.values():
            reductions += 1
            if not _verified(witness, _random_graph(rng, rng.randint(2, 5))):
                failed.append((lang, witness))
    assert regressions == [] and changed == [] and failed == []
    # the corpus reaches the uneven blocks the old normalization refused
    assert with_witness > 500 and gained > 0 and reductions > with_witness
