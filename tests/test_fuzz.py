"""Fuzzed command lines and input documents through `main()`.

Every run must end in a result or in one `error:` line, with a documented
exit code (0 to 5) and never with a traceback.  Domains, arities, node and
vertex counts stay small so each call is cheap; the generator is
derandomized, so the examples are the same on every run.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from cvcsp.cli import main

COSTS = st.one_of(
    st.integers(-2, 5),
    st.sampled_from(["inf", "1/2", "3/0", "-1/2", "x", "7", "", 1.5, None, True, [1]]),
)


@st.composite
def functions(draw):
    arity = draw(st.sampled_from([1, 2, 2, 3, 0, -1, 5, True, "2"]))
    size = draw(st.one_of(st.integers(0, 10), st.sampled_from([4, 9, 16, 27, 8])))
    doc = {
        "name": draw(st.sampled_from(["f", "g", "h", "", 3])),
        "arity": arity,
        "table": draw(st.lists(COSTS, min_size=size, max_size=size)),
    }
    if draw(st.booleans()):
        del doc[draw(st.sampled_from(["name", "arity", "table"]))]
    return doc


@st.composite
def exact_functions(draw, domain, name):
    """A well-formed function document, so most languages get past parsing."""
    arity = draw(st.integers(1, 3 if domain <= 3 else 2))
    cost = st.one_of(st.integers(0, 4), st.just("inf"), st.just("1/2"))
    size = domain**arity
    return {"name": name, "arity": arity, "table": draw(st.lists(cost, min_size=size, max_size=size))}


@st.composite
def languages(draw):
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from([[], 3, "x", None]))
    if draw(st.integers(0, 9)) < 7:
        domain = draw(st.integers(2, 4))
        names = draw(st.lists(st.sampled_from("fgh"), min_size=1, max_size=2, unique=True))
        return {"domain": domain, "functions": [draw(exact_functions(domain, n)) for n in names]}
    domain = draw(st.sampled_from([2, 3, -2, 0, 1, 17, "2", None, 2.0]))
    return {"domain": domain, "functions": draw(st.lists(functions(), max_size=2))}


@st.composite
def instances(draw, lang_doc):
    """An instance over the language's functions, sometimes malformed."""
    listed = lang_doc.get("functions", []) if isinstance(lang_doc, dict) else []
    arities = {f["name"]: f.get("arity") for f in listed if isinstance(f.get("name"), str)}
    nodes = draw(st.integers(0, 4))
    terms = []
    for name in draw(st.lists(st.sampled_from(sorted(arities) or ["f"]), max_size=4)):
        arity = arities.get(name, 2)
        arity = arity if isinstance(arity, int) and 0 <= arity <= 3 else 2
        terms.append({"name": name, "scope": draw(st.lists(st.integers(0, 3), min_size=arity, max_size=arity))})
    doc = {"nodes": nodes, "terms": [{"function": t["name"], "scope": t["scope"]} for t in terms]}
    if draw(st.integers(0, 3)) == 3:
        doc[draw(st.sampled_from(["nodes", "terms", "functions"]))] = draw(
            st.sampled_from([-1, None, "2", {}, [{"function": 1, "scope": "0 1"}], [3]])
        )
    if draw(st.integers(0, 5)) == 5:
        doc["functions"] = draw(st.lists(functions(), max_size=1))
    return doc


@st.composite
def source_graphs(draw):
    edges = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=5))
    if draw(st.integers(0, 3)) == 3:
        edges = draw(st.lists(st.lists(st.integers(-1, 5), min_size=1, max_size=3), max_size=5))
    if draw(st.booleans()):
        vertices = draw(st.sampled_from([5, 5, 3, 0, -1, "4", None]))
        return json.dumps({"vertices": vertices, "edges": edges})
    lines = [" ".join(map(str, e)) for e in edges]
    return "\n".join(lines + draw(st.sampled_from([[], [], ["# c"], ["a b"], ["{"]])))


OPTION_VALUES = st.sampled_from(["2", "3", "8", "64", "-1", "0", "x"])
FLAGS = {
    "classify": ["--json", "--no-timings", "--pool-budget", "--chain-depth"],
    "solve": ["--json", "--no-timings", "--no-cache", "--pool-budget", "--chain-depth",
              "--brute-budget"],
    "graph": ["--json", "--summary", "--out", "--pool-budget", "--chain-depth"],
    "reduce": ["--json", "--verify", "--kind", "--out", "--pool-budget", "--chain-depth"],
}
ANY_FLAG = sorted({flag for flags in FLAGS.values() for flag in flags} | {"--bogus", "--no-timings"})


@st.composite
def command_lines(draw, lang, inst, graph, out):
    """Mostly the command's own files and flags, sometimes anything."""
    command = draw(st.sampled_from(["classify", "solve", "graph", "reduce"]))
    files = {"classify": [lang], "solve": [lang, inst], "graph": [lang], "reduce": [lang, graph]}
    argv = [command] + files[command]
    if draw(st.integers(0, 9)) == 9:
        argv = draw(st.sampled_from([["bogus"], [], ["--json"]])) + argv[: draw(st.integers(0, 2))]
    own = st.sampled_from(FLAGS[command])
    flag = st.one_of(own, own, own, st.sampled_from(ANY_FLAG))
    for name in draw(st.lists(flag, max_size=4, unique=True)):
        argv.append(name)
        if name == "--kind":
            argv.append(draw(st.sampled_from(["auto", "maxcut", "mis", "cut"])))
        elif name == "--out":
            argv.append(draw(st.sampled_from([out, os.path.dirname(out), out + "/no/such"])))
        elif name.endswith(("budget", "depth", "limit")):
            argv.append(draw(OPTION_VALUES))
    return argv


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data(), languages(), source_graphs())
def test_main_ends_in_a_result_or_one_error_line(data, lang_doc, graph_text):
    inst_doc = data.draw(instances(lang_doc))
    with tempfile.TemporaryDirectory() as tmp:
        lang = os.path.join(tmp, "lang.json")
        inst = os.path.join(tmp, "inst.json")
        graph = os.path.join(tmp, "graph.txt")
        with open(lang, "w", encoding="utf-8") as fh:
            json.dump(lang_doc, fh)
        with open(inst, "w", encoding="utf-8") as fh:
            json.dump(inst_doc, fh)
        with open(graph, "w", encoding="utf-8") as fh:
            fh.write(graph_text)
        argv = data.draw(command_lines(lang, inst, graph, os.path.join(tmp, "out")))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in range(6), (argv, code)
    assert len(errors) <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not errors or code == 1, (argv, code, errors)
