import json
import random
from fractions import Fraction

import pytest

from cvcsp.model import INF
from cvcsp.cli import (
    EXIT_GENERAL,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_NO_WITNESS,
    EXIT_NP_HARD,
    EXIT_OK,
    cost_from_json,
    cost_to_json,
    load_source_graph,
    main,
    parse_language,
)
from corpus import random_cost_function
from oracles import min_max_pair, serialize_language


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def equality_doc():
    return {"domain": 2, "functions": [{"name": "eq", "arity": 2, "table": [1, 0, 0, 1]}]}


def distance_doc():
    return {
        "domain": 3,
        "functions": [
            {"name": "dist", "arity": 2, "table": [0, 1, 2, 1, 0, 1, 2, 1, 0]}
        ],
    }


def crisp_doc():
    return {
        "domain": 2,
        "functions": [{"name": "neq", "arity": 2, "table": ["inf", 0, 0, "inf"]}],
    }


# ----------------------------------------------------------------- cost json


def test_cost_json_round_trip():
    for value in (0, 7, Fraction(5, 2), INF):
        assert cost_from_json(cost_to_json(value)) == value
    assert cost_from_json("3") == 3
    with pytest.raises(Exception):
        cost_from_json("x/y")
    with pytest.raises(Exception):
        cost_from_json(1.5)


def test_language_schema_round_trip_random():
    rng = random.Random(42)
    for _ in range(20):
        d = rng.randint(2, 4)
        fns = [
            random_cost_function(rng, f"f{i}", d, rng.randint(1, 3), inf_prob=0.2)
            for i in range(rng.randint(1, 3))
        ]
        from cvcsp.model import Language

        lang = Language(d, tuple(fns))
        doc = serialize_language(lang)
        again = parse_language(json.loads(json.dumps(doc)))
        assert serialize_language(again) == doc


# ---------------------------------------------------------------- exit codes


def test_classify_exit_codes(tmp_path, capsys):
    eq = write(tmp_path / "eq.json", equality_doc())
    dist = write(tmp_path / "dist.json", distance_doc())
    crisp = write(tmp_path / "crisp.json", crisp_doc())
    assert main(["classify", eq, "--no-timings"]) == EXIT_NP_HARD
    assert main(["classify", dist, "--no-timings"]) == EXIT_OK
    assert main(["classify", crisp, "--no-timings"]) == EXIT_GENERAL
    capsys.readouterr()


def test_classify_general_language_with_looped_components_gives_verdict(tmp_path, capsys):
    doc = {
        "domain": 3,
        "functions": [
            {"name": "c", "arity": 2, "table": ["inf", 0, 0, 0, "inf", 0, 0, 0, "inf"]}
        ],
    }
    path = write(tmp_path / "c.json", doc)
    assert main(["classify", path, "--json", "--no-timings"]) == EXIT_NP_HARD
    captured = capsys.readouterr()
    assert json.loads(captured.out)["witness"] is not None
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("d", [7, 8])
@pytest.mark.parametrize(
    "name, cost",
    [("modular", lambda x, y: x + 2 * y), ("unary-sum", lambda x, y: (3 * x) % 5 + (2 * y + 1) % 4)],
)
def test_modular_languages_with_many_free_components_are_tractable(tmp_path, capsys, d, name, cost):
    # a modular table has no pair-graph edges, so all d(d-1)/2 sign
    # components stay free; the first candidate verifies all the same
    table = [cost(x, y) for x in range(d) for y in range(d)]
    path = write(tmp_path / f"{name}.json",
                 {"domain": d, "functions": [{"name": "m", "arity": 2, "table": table}]})
    assert main(["classify", path, "--json", "--no-timings"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "TRACTABLE"
    assert report["stats"]["components"] == d * (d - 1) // 2
    assert report["stats"]["candidates"] == 1
    assert report["submodular_order"] == list(range(d))


@pytest.mark.parametrize(
    "name, d, cost",
    [
        ("dist", 9, lambda x, y: abs(x - y)),
        ("dist", 16, lambda x, y: abs(x - y)),
        ("unary-sum", 16, lambda x, y: (3 * x) % 5 + (2 * y + 1) % 4),
    ],
)
def test_large_domains_classify_on_their_first_candidate(tmp_path, capsys, name, d, cost):
    # no domain size is refused: the first candidate verifies at any size
    table = [cost(x, y) for x in range(d) for y in range(d)]
    path = write(tmp_path / f"{name}.json",
                 {"domain": d, "functions": [{"name": "f", "arity": 2, "table": table}]})
    assert main(["classify", path, "--json", "--no-timings"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "TRACTABLE"
    assert report["stats"]["candidates"] == 1
    assert report["submodular_order"] == list(range(d))


# two binary languages on which the increasing mask walk took 129.5 s (d=7)
# and did not finish in 120 s (d=8) with --pool-budget 1: no edges, so every
# label pair is its own component, and each nogood has at most two bits
SEARCH_HEAVY = {
    7: {"domain": 7, "functions": [
        {"name": "s", "arity": 2, "table": [
            2, 7, 1, 8, 2, 8, 1, 5, 10, 4, 11, 5, 11, 4, 3, 8, 2, 9, 3, 9, 2, 6, 11, 5, 12,
            6, 12, 5, 3, 8, 2, 9, 3, 9, 2, 7, 12, 6, 13, 7, 13, 6, 4, 9, 3, 10, 4, 10, 3]},
        {"name": "f", "arity": 2, "table": [
            33, 30, 33, 30, 33, 31, 33, 34, 23, 30, 19, 19, 26, 23, 36, 30, 34, 30, 33, 32,
            33, 35, 16, 29, 11, 8, 23, 16, 35, 13, 28, 5, 0, 22, 12, 32, 23, 28, 21, 23, 26,
            24, 32, 18, 27, 13, 12, 23, 18]}]},
    8: {"domain": 8, "functions": [
        {"name": "s", "arity": 2, "table": [
            2, 7, 1, 8, 2, 8, 1, 8, 5, 10, 4, 11, 5, 11, 4, 11, 3, 8, 2, 9, 3, 9, 2, 9, 6, 11,
            5, 12, 6, 12, 5, 12, 3, 8, 2, 9, 3, 9, 2, 9, 7, 12, 6, 13, 7, 13, 6, 13, 4, 9, 3,
            10, 4, 10, 3, 10, 8, 13, 7, 14, 8, 14, 7, 14]},
        {"name": "f", "arity": 2, "table": [
            42, 37, 38, 46, 43, 37, 36, 44, 41, 24, 29, 49, 37, 22, 16, 44, 39, 27, 30, 46,
            37, 27, 23, 42, 44, 47, 44, 47, 47, 47, 48, 45, 42, 34, 37, 48, 42, 34, 32, 44,
            37, 18, 24, 49, 33, 14, 7, 42, 34, 14, 20, 49, 30, 8, 0, 41, 47, 46, 45, 50, 50,
            46, 46, 48]}]},
}


@pytest.mark.parametrize(
    "d, candidates, components, order",
    [(7, 21, 21, [0, 2, 5, 1, 6, 3, 4]), (8, 27, 28, [6, 5, 1, 2, 4, 0, 7, 3])],
)
def test_binary_languages_that_walked_long_classify_quickly(
    tmp_path, capsys, d, candidates, components, order
):
    path = write(tmp_path / f"heavy{d}.json", SEARCH_HEAVY[d])
    assert main(["classify", path, "--pool-budget", "1", "--json", "--no-timings"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "TRACTABLE"
    assert report["stats"]["candidates"] == candidates
    assert report["stats"]["components"] == components
    # the certificate's tournament is transitive: it is the order's min/max
    assert report["submodular_order"] == order
    assert report["certificate"]["meet"] == list(min_max_pair(tuple(order)).meet)


def test_classify_truncated_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"domain": 2, "functions": [')
    assert main(["classify", str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line" in err


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[" * 100_000, id="deeply-nested"),  # past the decoder's recursion limit
        # CPython converts integers of at most 4,300 digits from text by default
        pytest.param(
            '{"domain": 2, "functions": [{"name": "f", "arity": 1, "table": [0, %s]}]}' % ("7" * 5000),
            id="integer-past-the-conversion-limit",
        ),
    ],
)
def test_classify_json_the_decoder_refuses_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "lang.json"
    path.write_text(text)
    assert main(["classify", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_classify_schema_violation_location(tmp_path, capsys):
    doc = {"domain": 2, "functions": [{"name": "f", "arity": 2, "table": [0, 1, 2]}]}
    path = write(tmp_path / "short.json", doc)
    assert main(["classify", path]) == EXIT_INPUT
    assert "table" in capsys.readouterr().err


@pytest.mark.parametrize("place", ["language", "inline"])
@pytest.mark.parametrize(
    "entry, message",
    [
        pytest.param("1_0", "invalid cost '1_0'", id="numeral"),
        pytest.param(-3, "costs must be non-negative, got -3", id="negative"),
        pytest.param(True, "invalid cost True", id="boolean"),
    ],
)
def test_bad_table_entry_names_file_function_and_entry(tmp_path, capsys, place, entry, message):
    bad = {"name": "u", "arity": 1, "table": [0, 1, entry]}
    if place == "language":
        doc = distance_doc()
        doc["functions"].append(bad)
        path = write(tmp_path / "lang.json", doc)
        argv, pos = ["classify", path], 1
    else:
        path = write(tmp_path / "inst.json", {"nodes": 1, "functions": [bad], "terms": []})
        argv, pos = ["solve", write(tmp_path / "dist.json", distance_doc()), path, "--no-cache"], 0
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: functions[{pos}]: table[2]: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "functions, scope, message",
    [
        pytest.param(2, [0, 1], "functions[1]: duplicate function name 'dist'", id="duplicate-name"),
        pytest.param(1, [0, 5], "terms[0]: node 5 outside 0..1", id="node-outside"),
        pytest.param(1, [0], "terms[0]: scope length 1 != arity 2", id="scope-length"),
    ],
)
def test_record_error_names_file_and_element(tmp_path, capsys, functions, scope, message):
    doc = distance_doc()
    doc["functions"] *= functions
    lang = write(tmp_path / "lang.json", doc)
    inst = write(tmp_path / "inst.json", {"nodes": 2, "terms": [{"function": "dist", "scope": scope}]})
    assert main(["solve", lang, inst, "--no-cache"]) == EXIT_INPUT
    captured = capsys.readouterr()
    path = lang if functions > 1 else inst
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""


def test_solve_exit_codes(tmp_path, capsys):
    dist = write(tmp_path / "dist.json", distance_doc())
    inst = write(
        tmp_path / "inst.json",
        {"nodes": 2, "terms": [{"function": "dist", "scope": [0, 1]}]},
    )
    assert main(["solve", dist, inst, "--no-timings", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "min_cut" and report["cost"] == 0

    unknown = write(
        tmp_path / "unknown.json",
        {"nodes": 2, "terms": [{"function": "nope", "scope": [0, 1]}]},
    )
    assert main(["solve", dist, unknown, "--no-timings"]) == EXIT_INPUT
    capsys.readouterr()

    crisp = write(tmp_path / "crisp.json", crisp_doc())
    forced = write(
        tmp_path / "forced.json",
        {
            "nodes": 2,
            "terms": [
                {"function": "neq", "scope": [0, 1]},
                {"function": "neq", "scope": [0, 0]},
            ],
        },
    )
    assert main(["solve", crisp, forced, "--no-timings"]) == EXIT_INFEASIBLE
    capsys.readouterr()


def test_solve_prints_integral_fractions_as_ints(tmp_path, capsys):
    # two half-valued terms sum to an integral Fraction in the cost and offset
    half = {"domain": 2, "functions": [{"name": "h", "arity": 2, "table": ["1/2"] * 4}]}
    lang = write(tmp_path / "half.json", half)
    inst = write(
        tmp_path / "chain.json",
        {
            "nodes": 3,
            "terms": [{"function": "h", "scope": [0, 1]}, {"function": "h", "scope": [1, 2]}],
        },
    )
    assert main(["solve", lang, inst, "--no-timings", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["cost"] == 1 and type(report["cost"]) is int
    assert report["stats"]["offset"] == 1 and type(report["stats"]["offset"]) is int
    assert cost_to_json(Fraction(4, 2)) == 2 and cost_to_json(Fraction(3, 2)) == "3/2"


def test_importing_the_cli_does_not_load_hashlib(tmp_path):
    # the solve cache is keyed on the language file's text, so no command
    # loads OpenSSL: not on import, and not when solve writes or hits its cache
    import os
    import subprocess
    import sys

    import cvcsp

    src = os.path.dirname(os.path.dirname(cvcsp.__file__))
    dist = write(tmp_path / "dist.json", distance_doc())
    inst = write(
        tmp_path / "inst.json", {"nodes": 2, "terms": [{"function": "dist", "scope": [0, 1]}]}
    )
    probe = (
        "import os, sys, cvcsp.cli as cli\n"
        "argv = ['solve', sys.argv[1], sys.argv[2], '--no-timings']\n"
        "print(cli.main(argv), os.path.exists(sys.argv[1] + '.cls.json'), file=sys.stderr)\n"
        "cli.classify = None  # a second classification would fail: the cache must hit\n"
        "print(cli.main(argv), '_hashlib' in sys.modules, file=sys.stderr)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, dist, inst],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stderr.splitlines() == ["0 True", "0 False"]


def test_importing_the_cli_loads_all_modules_and_no_dataclasses():
    # the records are plain classes, so a fresh start generates no code and
    # loads neither dataclasses nor inspect (with its ast, dis and tokenize)
    import os
    import subprocess
    import sys

    import cvcsp

    src = os.path.dirname(os.path.dirname(cvcsp.__file__))
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cvcsp.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    )
    added = set(out.stdout.split())
    assert not added & {"dataclasses", "inspect"}
    modules = ("cli", "model", "express", "pairgraph", "dichotomy", "hardness", "solver")
    assert {f"cvcsp.{name}" for name in modules} <= added


@pytest.mark.parametrize(
    "doc",
    [{"nodes": 2, "terms": 5}, {"nodes": 2, "functions": 3, "terms": []}],
)
def test_solve_instance_lists_of_wrong_type_are_input_errors(tmp_path, capsys, doc):
    dist = write(tmp_path / "dist.json", distance_doc())
    inst = write(tmp_path / "inst.json", doc)
    assert main(["solve", dist, inst, "--no-cache"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "language, instance, field",
    [
        ({"domain": True, "functions": []}, None, "'domain'"),
        ({"domain": 2, "functions": [{"name": "u", "arity": True, "table": [0, 1]}]}, None,
         "'arity'"),
        (None, {"nodes": True, "terms": [{"function": "dist", "scope": [False, False]}]},
         "'nodes'"),
        (None, {"nodes": 2, "terms": [{"function": "dist", "scope": [False, True]}]}, "'scope'"),
    ],
)
def test_json_booleans_are_not_integers(tmp_path, capsys, language, instance, field):
    lang = write(tmp_path / "lang.json", language or distance_doc())
    if instance is None:
        status = main(["classify", lang])
    else:
        status = main(["solve", lang, write(tmp_path / "inst.json", instance), "--no-cache"])
    captured = capsys.readouterr()
    assert status == EXIT_INPUT and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err


@pytest.mark.parametrize(
    "functions", [[], [{"name": "unused", "arity": 1, "table": [0, 1, 2]}]]
)
def test_solve_instance_without_terms_costs_zero(tmp_path, capsys, functions):
    # with no terms every assignment costs 0; the domain comes from the language
    dist = write(tmp_path / "dist.json", distance_doc())
    inst = write(tmp_path / "inst.json", {"nodes": 3, "functions": functions, "terms": []})
    assert main(["solve", dist, inst, "--no-cache", "--no-timings", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["assignment"] == [0, 0, 0] and report["cost"] == 0
    assert report["method"] == "elimination"
    assert report["stats"] == {"width": 0, "table_entries": 0}


def test_solve_inline_function_error_names_its_position(tmp_path, capsys):
    dist = write(tmp_path / "dist.json", distance_doc())
    good = {"name": "ok", "arity": 1, "table": [0, 1, 2]}
    bad = {"name": "bad", "arity": 0, "table": [0]}
    inst = write(tmp_path / "inst.json", {"nodes": 1, "functions": [good, good, bad], "terms": []})
    assert main(["solve", dist, inst, "--no-cache"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: {inst}: functions[2]: 'arity' must be a positive integer\n"


def test_solve_rejects_duplicate_inline_function_names(tmp_path, capsys):
    # served, the last one would win: the cost would be 0 instead of 1
    dist = write(tmp_path / "dist.json", distance_doc())
    first = {"name": "u", "arity": 1, "table": [1, 2, 3]}
    second = {"name": "u", "arity": 1, "table": [0, 0, 0]}
    doc = {"nodes": 1, "functions": [first, second], "terms": [{"function": "u", "scope": [0]}]}
    inst = write(tmp_path / "inst.json", doc)
    assert main(["solve", dist, inst, "--no-cache"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {inst}: functions[1]: duplicate function name 'u'\n"


@pytest.mark.parametrize("language", ["dist", "potts3"])
def test_solve_rejects_huge_node_counts(tmp_path, capsys, language):
    # min-cut (dist) and elimination (potts3) would both allocate per node
    lang_doc = distance_doc() if language == "dist" else potts3_doc()
    name = lang_doc["functions"][0]["name"]
    lang = write(tmp_path / "lang.json", lang_doc)
    doc = {"nodes": 10**12, "terms": [{"function": name, "scope": [0, 1]}]}
    inst = write(tmp_path / "inst.json", doc)
    assert main(["solve", lang, inst, "--no-cache"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {inst}: 1000000000000 nodes exceed the limit of {1 << 20}\n"


def test_solve_brute_force_on_np_hard_language(tmp_path, capsys):
    eq = write(tmp_path / "eq.json", equality_doc())
    inst = write(
        tmp_path / "inst.json",
        {
            "nodes": 6,
            "terms": [
                {"function": "eq", "scope": [i, (i + 1) % 6]} for i in range(6)
            ],
        },
    )
    assert main(["solve", eq, inst, "--no-timings", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "elimination"
    assert report["classification"] == "NP_HARD"
    assert report["cost"] == 0  # alternate labels around the even cycle
    assert report["assignment"] == [0, 1, 0, 1, 0, 1]


def test_solve_eliminates_a_tractable_instance_whose_tables_have_no_cut(tmp_path, capsys):
    # `dist` is submodular under (0, 1, 2) but the inline Potts `eq` is not,
    # so the min-cut route cannot take the instance; elimination solves it
    dist = write(tmp_path / "dist.json", distance_doc())
    eq = {"name": "eq", "arity": 2, "table": [int(x != y) for x in range(3) for y in range(3)]}
    inst = write(
        tmp_path / "inst.json",
        {
            "nodes": 3,
            "functions": [eq],
            "terms": [{"function": "dist", "scope": [0, 1]}, {"function": "eq", "scope": [1, 2]}],
        },
    )
    assert main(["solve", dist, inst, "--json", "--no-cache", "--no-timings"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "assignment": [0, 0, 0],
        "cost": 0,
        "method": "elimination",
        "classification": "TRACTABLE",
        "stats": {"width": 1, "table_entries": 21},
    }


def test_closed_stdout_is_one_error_line(tmp_path):
    # the read end of stdout's pipe is closed before the program starts, so
    # its first write to stdout fails with a broken pipe
    import os
    import subprocess
    import sys

    import cvcsp

    src = os.path.dirname(os.path.dirname(cvcsp.__file__))
    dist = write(tmp_path / "dist.json", distance_doc())
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "cvcsp.cli", "classify", dist, "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    assert out.returncode == EXIT_INPUT
    assert out.stderr == "error: standard output was closed before all output was written\n"


def potts3_doc():
    table = [int(x != y) for x in range(3) for y in range(3)]
    return {"domain": 3, "functions": [{"name": "potts", "arity": 2, "table": table}]}


def frame_optimum(frames, local, between, cyclic):
    """Minimum over state sequences of the local costs plus the costs between
    neighbouring frames (and between the last and the first when cyclic)."""
    best = None
    for first in frames[0] if cyclic else [None]:
        cost = {s: local(0, s) for s in frames[0] if first in (None, s)}
        for i in range(1, len(frames)):
            cost = {t: local(i, t) + min(c + between(s, t) for s, c in cost.items()) for t in frames[i]}
        close = min(c + (between(s, first) if cyclic else 0) for s, c in cost.items())
        best = close if best is None else min(best, close)
    return best


@pytest.mark.parametrize("shape", ["cycle", "ladder"])
def test_solve_eliminates_long_potts_cycles_and_ladders(tmp_path, capsys, shape):
    # 3^200 assignments are far beyond enumeration; elimination has width 2
    def wish(v, a):  # every seventh node is pulled towards a label
        return 2 if v % 7 == 0 and a != v // 7 % 3 else 0

    if shape == "cycle":
        edges = [(i, (i + 1) % 200) for i in range(200)]
        optimum = frame_optimum([range(3)] * 200, wish, lambda s, t: int(s != t), True)
    else:  # rungs (2i, 2i+1), rails along the even and along the odd nodes
        edges = [(2 * i, 2 * i + 1) for i in range(100)] + [(v, v + 2) for v in range(198)]
        optimum = frame_optimum(
            [[(a, b) for a in range(3) for b in range(3)]] * 100,
            lambda i, s: int(s[0] != s[1]) + wish(2 * i, s[0]) + wish(2 * i + 1, s[1]),
            lambda s, t: int(s[0] != t[0]) + int(s[1] != t[1]),
            False,
        )
    functions = [
        {"name": f"u{a}", "arity": 1, "table": [0 if b == a else 2 for b in range(3)]}
        for a in range(3)
    ]
    terms = [{"function": "potts", "scope": list(e)} for e in edges]
    terms += [{"function": f"u{v // 7 % 3}", "scope": [v]} for v in range(0, 200, 7)]
    potts = write(tmp_path / "potts3.json", potts3_doc())
    inst = write(tmp_path / "inst.json", {"nodes": 200, "functions": functions, "terms": terms})
    assert main(["solve", potts, inst, "--no-timings", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "elimination" and report["classification"] == "NP_HARD"
    assert report["stats"]["width"] == 2
    labels = report["assignment"]
    own = sum(labels[u] != labels[v] for u, v in edges) + sum(wish(v, labels[v]) for v in range(200))
    assert report["cost"] == own == optimum > 0


def test_solve_cache_created_and_reused(tmp_path, capsys):
    dist = write(tmp_path / "dist.json", distance_doc())
    inst = write(
        tmp_path / "inst.json",
        {"nodes": 2, "terms": [{"function": "dist", "scope": [0, 1]}]},
    )
    cache = tmp_path / "dist.json.cls.json"
    assert main(["solve", dist, inst, "--no-timings"]) == EXIT_OK
    assert cache.exists()
    doc = json.loads(cache.read_text())
    assert doc["report"]["verdict"] == "TRACTABLE"
    # poison the cached verdict; the cached value must now drive dispatch
    doc["report"]["submodular_order"] = None
    cache.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["solve", dist, inst, "--no-timings", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "elimination"
    # --no-cache ignores the poisoned file
    assert main(["solve", dist, inst, "--no-timings", "--json", "--no-cache"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "min_cut"


def test_solve_cache_keyed_on_classification_settings(tmp_path, capsys):
    dist = write(tmp_path / "dist.json", distance_doc())
    inst = write(
        tmp_path / "inst.json",
        {"nodes": 2, "terms": [{"function": "dist", "scope": [0, 1]}]},
    )
    cache = tmp_path / "dist.json.cls.json"
    assert main(["solve", dist, inst, "--no-timings", "--pool-budget", "1"]) == EXIT_OK
    assert json.loads(cache.read_text())["report"]["stats"]["pool_views"] == 1
    argv = ["solve", dist, inst, "--no-timings", "--pool-budget", "64", "--chain-depth", "2"]
    assert main(argv) == EXIT_OK
    doc = json.loads(cache.read_text())
    assert doc["report"]["stats"]["pool_views"] > 1
    assert doc["key"]["pool_budget"] == 64 and doc["key"]["chain_depth"] == 2
    assert list(tmp_path.glob("*.tmp")) == []
    capsys.readouterr()


@pytest.mark.parametrize(
    "poison",
    [
        "report-list", "not-object", "not-json", "domain-limit-key", "sha256-key", "language-edit",
        "deeply-nested",
    ],
)
def test_solve_treats_malformed_cache_as_miss(tmp_path, capsys, poison):
    dist = write(tmp_path / "dist.json", distance_doc())
    inst = write(
        tmp_path / "inst.json",
        {"nodes": 2, "terms": [{"function": "dist", "scope": [0, 1]}]},
    )
    cache = tmp_path / "dist.json.cls.json"
    assert main(["solve", dist, inst, "--no-timings"]) == EXIT_OK
    doc = json.loads(cache.read_text())
    if poison == "report-list":
        doc["report"] = []
        cache.write_text(json.dumps(doc))
    elif poison == "not-object":
        cache.write_text(json.dumps([doc]))
    elif poison == "domain-limit-key":
        # keyed as before the STP domain limit went; served, its order would
        # send solve to elimination
        doc["key"]["stp_domain_limit"] = 8
        doc["report"]["submodular_order"] = None
        cache.write_text(json.dumps(doc))
    elif poison == "sha256-key":
        # keyed by the file's SHA-256, as before the key held its text
        import hashlib

        digest = hashlib.sha256((tmp_path / "dist.json").read_bytes()).hexdigest()
        doc["key"] = {"sha256": digest, **{k: v for k, v in doc["key"].items() if k != "text"}}
        doc["report"]["submodular_order"] = None
        cache.write_text(json.dumps(doc))
    elif poison == "language-edit":
        # a one-byte edit that keeps the language: its text no longer matches
        doc["report"]["submodular_order"] = None
        cache.write_text(json.dumps(doc))
        (tmp_path / "dist.json").write_text((tmp_path / "dist.json").read_text() + " ")
    elif poison == "deeply-nested":
        cache.write_text("[" * 100_000)  # deeper than the JSON decoder's recursion limit
    else:
        cache.write_text('{"key": ')
    capsys.readouterr()
    assert main(["solve", dist, inst, "--no-timings", "--json"]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["method"] == "min_cut"
    assert "Traceback" not in captured.err
    rewritten = json.loads(cache.read_text())
    assert rewritten["report"]["verdict"] == "TRACTABLE"
    assert rewritten["report"]["submodular_order"] == [0, 1, 2]
    assert "stp_domain_limit" not in rewritten["key"] and "sha256" not in rewritten["key"]
    assert rewritten["key"]["text"] == (tmp_path / "dist.json").read_text()


# -------------------------------------------------------------------- output


def test_reports_are_deterministic(tmp_path, capsys):
    dist = write(tmp_path / "dist.json", distance_doc())
    main(["classify", dist, "--json", "--no-timings"])
    first = capsys.readouterr().out
    main(["classify", dist, "--json", "--no-timings"])
    second = capsys.readouterr().out
    assert first == second
    main(["classify", dist, "--no-timings"])
    text_one = capsys.readouterr().out
    main(["classify", dist, "--no-timings"])
    assert capsys.readouterr().out == text_one


def test_report_mentions_unary_note(tmp_path, capsys):
    doc = distance_doc()
    doc["functions"].append({"name": "u", "arity": 1, "table": [0, 1, 2]})
    path = write(tmp_path / "with_unary.json", doc)
    main(["classify", path, "--no-timings"])
    out = capsys.readouterr().out
    assert "unary" in out and "u" in out


def test_graph_command_dot_and_summary(tmp_path, capsys):
    dist2 = write(
        tmp_path / "bool.json",
        {"domain": 2, "functions": [{"name": "d", "arity": 2, "table": [0, 1, 1, 0]}]},
    )
    assert main(["graph", dist2]) == EXIT_OK
    dot = capsys.readouterr().out
    assert dot.count("--") == 1 and '"0|1"' in dot
    assert main(["graph", dist2, "--summary", "--json"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["nodes"] == 2 and summary["edges"] == 1 and summary["soft"] == 1
    out_file = tmp_path / "g.dot"
    assert main(["graph", dist2, "--out", str(out_file)]) == EXIT_OK
    assert out_file.read_text() == dot
    capsys.readouterr()


def test_graph_out_writes_the_summary(tmp_path, capsys):
    dist = write(tmp_path / "dist.json", distance_doc())
    for flags in ([], ["--json"]):
        assert main(["graph", dist, "--summary", *flags]) == EXIT_OK
        printed = capsys.readouterr().out
        out_file = tmp_path / "summary.out"
        assert main(["graph", dist, "--summary", *flags, "--out", str(out_file)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out_file.read_text() == printed


def test_graph_json_without_summary_is_a_usage_error(tmp_path, capsys):
    dist = write(tmp_path / "dist.json", distance_doc())
    assert main(["graph", dist, "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "--summary" in captured.err


def test_graph_self_loops_rendered(tmp_path, capsys):
    eq = write(tmp_path / "eq.json", equality_doc())
    main(["graph", eq])
    dot = capsys.readouterr().out
    assert '"0|1" -- "0|1"' in dot


# -------------------------------------------------------------------- reduce


def test_reduce_maxcut_end_to_end(tmp_path, capsys):
    eq = write(tmp_path / "eq.json", equality_doc())
    k3 = tmp_path / "k3.txt"
    k3.write_text("0 1\n1 2\n0 2\n")
    out = tmp_path / "reduced.json"
    code = main(["reduce", eq, str(k3), "--out", str(out), "--verify"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["nodes"] == 3
    decoder = json.loads((tmp_path / "reduced.json.decoder.json").read_text())
    assert decoder["kind"] == "maxcut" and decoder["slope"] == 1
    assert decoder["verified"] is True
    capsys.readouterr()


def test_reduce_mis_end_to_end(tmp_path, capsys):
    crisp = write(
        tmp_path / "mis.json",
        {"domain": 2, "functions": [{"name": "g", "arity": 2, "table": [0, 0, 0, "inf"]}]},
    )
    p3 = write(tmp_path / "p3.json", {"vertices": 3, "edges": [[0, 1], [1, 2]]})
    code = main(["reduce", crisp, p3, "--kind", "mis", "--verify", "--json"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["decoder"]["kind"] == "mis"
    assert doc["decoder"]["offset"] == 3 and doc["decoder"]["slope"] == 1


def test_reduce_tractable_language_exits_five(tmp_path, capsys):
    dist = write(tmp_path / "dist.json", distance_doc())
    k3 = tmp_path / "k3.txt"
    k3.write_text("0 1\n1 2\n0 2\n")
    assert main(["reduce", dist, str(k3)]) == EXIT_NO_WITNESS
    capsys.readouterr()


def test_reduce_kind_mismatch_exits_five(tmp_path, capsys):
    eq = write(tmp_path / "eq.json", equality_doc())
    k3 = tmp_path / "k3.txt"
    k3.write_text("0 1\n")
    assert main(["reduce", eq, str(k3), "--kind", "mis"]) == EXIT_NO_WITNESS
    capsys.readouterr()


def test_reduce_levels_an_uneven_one_infinite_witness(tmp_path, capsys):
    # the finite block (1, 0, 0) is not flat; a unary on the second label
    # levels it, so the soft self-loop at (0, 1) reduces independent set
    lang = write(
        tmp_path / "f.json",
        {"domain": 2, "functions": [{"name": "f", "arity": 2, "table": [1, 0, 0, "inf"]}]},
    )
    p3 = write(tmp_path / "p3.json", {"vertices": 3, "edges": [[0, 1], [1, 2]]})
    assert main(["reduce", lang, p3, "--verify", "--json"]) == EXIT_OK
    decoder = json.loads(capsys.readouterr().out)["decoder"]
    assert decoder["kind"] == "mis" and decoder["verified"] is True
    assert decoder["witness_pair"] == [0, 1]


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": 3, "edges": [[0,1],',
        '{"vertices": 3, "edges": [[0,1,2]]}',
        '{"vertices": 3, "edges": [[0,"x"]]}',
        '{"vertices": 3, "edges": 7}',
        '{"vertices": -1}',
        b"\xff\xfe0 1\n",  # not UTF-8
        # a vertex id is an optional "-" and ASCII digits, nothing else
        "0 1\n1 1_0\n",
        "+0 1\n",
        "0 1\n\u0661 \u0662\n",  # ARABIC-INDIC DIGITS ONE and TWO
        pytest.param(
            '{"vertices": 2, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}", id="deeply-nested"
        ),
    ],
)
def test_reduce_malformed_graph_file_is_input_error(tmp_path, capsys, text):
    eq = write(tmp_path / "eq.json", equality_doc())
    graph = tmp_path / "g.json"
    if isinstance(text, bytes):
        graph.write_bytes(text)
    else:
        graph.write_text(text)
    assert main(["reduce", eq, str(graph)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reduce_builds_the_pair_graph_once(tmp_path, capsys, monkeypatch):
    import cvcsp.cli
    import cvcsp.dichotomy
    import cvcsp.pairgraph

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return cvcsp.pairgraph.build_graph(*args, **kwargs)

    monkeypatch.setattr(cvcsp.dichotomy, "build_graph", counting)
    monkeypatch.setattr(cvcsp.cli, "build_graph", counting)
    eq = write(tmp_path / "eq.json", equality_doc())
    k3 = tmp_path / "k3.txt"
    k3.write_text("0 1\n1 2\n0 2\n")
    assert main(["reduce", eq, str(k3), "--verify", "--json"]) == EXIT_OK
    assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "domain, vertices, limit",
    [(3, 16, 15), (2, 17, 16)],
)
def test_reduce_verify_refuses_graphs_past_the_exact_limit_before_any_work(
    tmp_path, capsys, monkeypatch, domain, vertices, limit
):
    # Potts at d=3 has 3^16 assignments on 16 vertices, over the
    # exact-enumeration budget; at d=2 the 16-vertex cap is the limit
    import cvcsp.cli

    def no_classify(*args, **kwargs):
        raise AssertionError("classified a language whose graph cannot be verified")

    monkeypatch.setattr(cvcsp.cli, "classify", no_classify)
    potts = write(
        tmp_path / "potts.json",
        {
            "domain": domain,
            "functions": [{"name": "potts", "arity": 2,
                           "table": [int(x == y) for x in range(domain) for y in range(domain)]}],
        },
    )
    path = write(tmp_path / "path.json",
                 {"vertices": vertices, "edges": [[i, i + 1] for i in range(vertices - 1)]})
    assert main(["reduce", potts, path, "--verify"]) == EXIT_INPUT
    captured = capsys.readouterr()
    line = _single_error(captured.err)
    assert f"at domain size {domain} covers at most {limit} vertices" in line
    assert f"got {vertices}" in line and captured.out == ""


@pytest.mark.parametrize("kind", ["json", "text"])
def test_reduce_refuses_a_graph_past_the_node_limit_before_any_term(tmp_path, capsys, monkeypatch, kind):
    # each vertex becomes a node of the reduced instance; a tiny file naming
    # vertex 2^20 used to build 2^20 + 1 unary terms before the limit spoke
    import cvcsp.cli

    def no_reduction(*args, **kwargs):
        raise AssertionError("reduced a graph past the node limit")

    monkeypatch.setattr(cvcsp.cli, "reduce_maxcut", no_reduction)
    monkeypatch.setattr(cvcsp.cli, "reduce_mis", no_reduction)
    eq = write(tmp_path / "eq.json", equality_doc())
    vertices = (1 << 20) + 1
    if kind == "json":
        graph = write(tmp_path / "g.json", {"vertices": vertices, "edges": []})
    else:
        graph = tmp_path / "g.txt"
        graph.write_text(f"0 {vertices - 1}\n")
    assert main(["reduce", eq, str(graph)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {vertices} vertices exceed the limit of {1 << 20}\n"
    assert captured.out == ""


def test_source_graph_text_and_json(tmp_path):
    txt = tmp_path / "g.txt"
    txt.write_text("# a comment\n0 1\n2 1\n")
    g = load_source_graph(str(txt))
    assert g.vertex_count == 3 and g.edges == ((0, 1), (1, 2))
    js = tmp_path / "g.json"
    js.write_text(json.dumps({"vertices": 5, "edges": [[0, 4]]}))
    g2 = load_source_graph(str(js))
    assert g2.vertex_count == 5 and g2.edges == ((0, 4),)


def test_reduced_instance_file_is_solvable(tmp_path, capsys):
    # the emitted instance embeds its gadget functions; solving it through
    # the normal pipeline must reproduce the optimum the decoder expects
    eq = write(tmp_path / "eq.json", equality_doc())
    edge = tmp_path / "edge.txt"
    edge.write_text("0 1\n")
    out = tmp_path / "reduced.json"
    main(["reduce", eq, str(edge), "--out", str(out)])
    capsys.readouterr()
    assert main(["solve", eq, str(out), "--no-timings", "--json", "--no-cache"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["cost"] == 0  # one edge is always cuttable


def test_env_fallback_and_flag_priority(tmp_path, capsys, monkeypatch):
    dist = write(tmp_path / "dist.json", distance_doc())
    monkeypatch.setenv("CVCSP_POOL_BUDGET", "3")
    assert main(["classify", dist, "--json", "--no-timings"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["graph"]["truncated"] is True
    # an explicit flag overrides the environment
    assert main(["classify", dist, "--json", "--no-timings", "--pool-budget", "64"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["graph"]["truncated"] is False
    monkeypatch.setenv("CVCSP_POOL_BUDGET", "junk")
    assert main(["classify", dist]) == EXIT_INPUT
    capsys.readouterr()


# ---------------------------------------------------------- usage and flags


def _single_error(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "usage" not in err
    return lines[0]


@pytest.mark.parametrize(
    "extra",
    [
        ["--pool-budget", "x"],
        ["--bogus"],
        # a flag's value is an optional "-" and ASCII digits, nothing else
        ["--pool-budget", "1_0"],
        ["--pool-budget", "+1"],
        ["--pool-budget", " 2 "],
        ["--chain-depth", "\u0663"],  # ARABIC-INDIC DIGIT THREE
    ],
)
def test_usage_errors_exit_one_with_one_error_line(tmp_path, capsys, extra):
    path = write(tmp_path / "l.json", distance_doc())
    assert main(["classify", path] + extra) == EXIT_INPUT
    captured = capsys.readouterr()
    line = _single_error(captured.err)
    assert extra[0] in line
    assert captured.out == ""


def test_missing_command_is_a_usage_error(capsys):
    assert main([]) == EXIT_INPUT
    _single_error(capsys.readouterr().err)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--help"])
    assert exc.value.code == 0
    assert "--pool-budget" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flag",
    [
        ("classify", ["--brute-budget", "5"]),
        ("graph", ["--brute-budget", "5"]),
        ("graph", ["--no-timings"]),
        ("graph", ["--stp-domain-limit", "4"]),
        ("reduce", ["--brute-budget", "5"]),
        ("reduce", ["--no-timings"]),
        # the tournament search has no domain limit, so no command reads one
        ("classify", ["--stp-domain-limit", "4"]),
        ("solve", ["--stp-domain-limit", "4"]),
        ("reduce", ["--stp-domain-limit", "4"]),
    ],
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, command, flag):
    lang = write(tmp_path / "eq.json", equality_doc())
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n")
    inst = write(tmp_path / "inst.json", {"nodes": 2, "terms": [{"function": "eq", "scope": [0, 1]}]})
    operands = {"reduce": [str(graph)], "solve": [inst, "--no-cache"]}.get(command, [])
    argv = [command, lang] + operands + flag
    assert main(argv) == EXIT_INPUT
    assert flag[0] in _single_error(capsys.readouterr().err)


@pytest.mark.parametrize(
    "command, flags, env, message",
    [
        ("solve", ["--chain-depth", "-1"], {}, "--chain-depth must be at least 0, got -1"),
        ("classify", ["--chain-depth", "-1"], {}, "--chain-depth must be at least 0, got -1"),
        ("classify", ["--pool-budget", "0"], {}, "--pool-budget must be at least 1, got 0"),
        ("classify", [], {"CVCSP_POOL_BUDGET": "0"},
         "environment CVCSP_POOL_BUDGET must be at least 1, got 0"),
        ("classify", [], {"CVCSP_CHAIN_DEPTH": "-1"},
         "environment CVCSP_CHAIN_DEPTH must be at least 0, got -1"),
        ("graph", [], {"CVCSP_CHAIN_DEPTH": "-2"},
         "environment CVCSP_CHAIN_DEPTH must be at least 0, got -2"),
        ("solve", ["--brute-budget", "-5"], {}, "--brute-budget must be at least 1, got -5"),
        ("solve", [], {"CVCSP_BRUTE_BUDGET": "-1"},
         "environment CVCSP_BRUTE_BUDGET must be at least 1, got -1"),
    ],
)
def test_option_below_its_range_names_the_option_and_range(
    tmp_path, capsys, monkeypatch, command, flags, env, message
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    eq = write(tmp_path / "eq.json", equality_doc())
    inst = write(tmp_path / "inst.json", {"nodes": 2, "terms": [{"function": "eq", "scope": [0, 1]}]})
    argv = [command, eq] + ([inst, "--no-cache"] if command == "solve" else []) + flags
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert _single_error(captured.err) == f"error: {message}"
    assert captured.out == ""


@pytest.mark.parametrize(
    "where, text",
    [
        ("cost", "1_0"),
        ("cost", "+1"),
        ("cost", " 2 "),
        ("cost", "\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("cost", "1/+2"),
        ("cost", "\u0663/2"),
        ("cost", "1/2_0"),
        ("environment", "1_0"),
        ("environment", "+3"),
        ("environment", " 3 "),
        ("environment", "\u0663"),
    ],
)
def test_numerals_outside_the_grammar_are_input_errors(tmp_path, capsys, monkeypatch, where, text):
    # costs, "p/q" parts and CVCSP_* values take an optional "-" and ASCII
    # digits only; int() alone also takes "_", "+", spaces and other digits
    doc = equality_doc()
    if where == "cost":
        doc["functions"][0]["table"][0] = text
    else:
        monkeypatch.setenv("CVCSP_POOL_BUDGET", text)
    assert main(["classify", write(tmp_path / "eq.json", doc)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert repr(text) in _single_error(captured.err) and captured.out == ""


@pytest.mark.parametrize(
    "command, flag, variable",
    [("solve", "--brute-budget", "CVCSP_BRUTE_BUDGET")],
)
def test_budget_errors_name_their_flag_and_variable(tmp_path, capsys, command, flag, variable):
    # 2^3 assignments of an NP-hard instance exceed a budget of 2
    lang = write(tmp_path / "eq.json", equality_doc())
    terms = [{"function": "eq", "scope": [u, v]} for u, v in ((0, 1), (1, 2))]
    inst = write(tmp_path / "inst.json", {"nodes": 3, "terms": terms})
    argv = [command, lang, inst, "--no-cache", flag, "2"]
    assert main(argv) == EXIT_INPUT
    err = _single_error(capsys.readouterr().err)
    assert flag in err and variable in err


def test_solve_budget_error_names_the_table_entries(tmp_path, capsys):
    # a 30-node clique of eq: elimination needs 2^30 + 2^29 + ... + 2 table
    # entries, over the default budget, and so do its 2^30 assignments
    lang = write(tmp_path / "eq.json", equality_doc())
    terms = [{"function": "eq", "scope": [u, v]} for u in range(30) for v in range(u + 1, 30)]
    inst = write(tmp_path / "clique.json", {"nodes": 30, "terms": terms})
    assert main(["solve", lang, inst, "--no-cache"]) == EXIT_INPUT
    captured = capsys.readouterr()
    line = _single_error(captured.err)
    assert f"elimination needs {2**31 - 2} table entries, over the exact-enumeration budget {2**24}" in line
    assert "assignments" not in line
    assert "--brute-budget" in line and "CVCSP_BRUTE_BUDGET" in line
    assert captured.out == ""


@pytest.mark.parametrize("value", ["1", "x"])
def test_removed_domain_limit_variable_is_not_read(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("CVCSP_STP_DOMAIN_LIMIT", value)
    d = 9
    table = [abs(x - y) for x in range(d) for y in range(d)]
    lang = write(tmp_path / "dist9.json",
                 {"domain": d, "functions": [{"name": "dist", "arity": 2, "table": table}]})
    assert main(["classify", lang, "--no-timings"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("verdict: TRACTABLE\n") and captured.err == ""


@pytest.mark.parametrize("domain", [-2, 0, 1, 17])
def test_domain_outside_range_without_functions_is_input_error(tmp_path, capsys, domain):
    # with functions too, the error names the domain, not functions[0]
    unary = {"name": "u", "arity": 1, "table": [0, 1]}
    for functions in ([], [unary]):
        path = write(tmp_path / "l.json", {"domain": domain, "functions": functions})
        assert main(["classify", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert _single_error(captured.err) == f"error: {path}: domain size {domain} outside 2..16"
        assert captured.out == ""


@pytest.mark.parametrize("command", ["graph", "reduce"])
def test_unwritable_out_file_is_input_error(tmp_path, capsys, command):
    lang = write(tmp_path / "eq.json", equality_doc())
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n")
    argv = [command, lang] + ([str(graph)] if command == "reduce" else [])
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_INPUT
    _single_error(capsys.readouterr().err)
