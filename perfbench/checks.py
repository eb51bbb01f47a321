"""Check every CLI output of a run against the reference computations.

A call that exits 1 with an `error:` line is a failed operation.  Only the
known fault may fail: an operation marked `known_fault` whose error is the
candidate-budget BudgetExceeded from `search_stp`.  Such a failure is counted
and not checked; any other failure is a wrong output.  Every other output
must be right; the first wrong one raises WrongOutput naming its input.
Later rounds must repeat the first round's outputs exactly, apart from the
reported timings.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref
from workloads import WrongOutput

BUDGET_FAULT = "free sign components exceed the candidate budget"
VERDICT_EXIT = {
    "TRACTABLE": 0,
    "NP_HARD": 2,
    "GENERAL_CONJECTURED_TRACTABLE": 3,
    "GENERAL_UNKNOWN": 3,
}


def is_failure(code, err) -> bool:
    return code == 1 and err.startswith("error:")


def _functions(doc):
    return [(f["arity"], ref.parse_table(f["table"])) for f in doc["functions"]]


def _fail(op, message):
    raise WrongOutput(f"{op.name} ({op.argv[0]}): {message}")


def _check_pair(op, d, functions, meet, join, what):
    if not ref.is_conservative_commutative(meet, join, d):
        _fail(op, f"{what} is not a conservative commutative pair")
    if not ref.is_multimorphism(meet, join, d, functions):
        _fail(op, f"{what} is not a multimorphism of the language")


def check_classify(op, code, report):
    doc = op.data["language"]
    d = doc["domain"]
    functions = _functions(doc)
    finite = all(ref.INF not in t for _, t in functions)
    verdict = report["verdict"]
    if VERDICT_EXIT.get(verdict) != code:
        _fail(op, f"verdict {verdict} with exit code {code}")
    allowed = ("TRACTABLE", "NP_HARD") if finite else ("NP_HARD", "GENERAL_CONJECTURED_TRACTABLE", "GENERAL_UNKNOWN")
    if verdict not in allowed:
        _fail(op, f"verdict {verdict} on a {'finite' if finite else 'general'}-valued language")
    has_pair = ref.stp_exists(d, functions)
    if verdict in ("TRACTABLE", "GENERAL_CONJECTURED_TRACTABLE") and not has_pair:
        _fail(op, f"verdict {verdict}, but no tournament pair exists")
    if verdict == "NP_HARD" and has_pair:
        _fail(op, "verdict NP_HARD, but a tournament pair exists")
    cert = report.get("certificate")
    if verdict in ("TRACTABLE", "GENERAL_CONJECTURED_TRACTABLE"):
        if cert is None:
            _fail(op, f"verdict {verdict} without a certificate")
        _check_pair(op, d, functions, cert["meet"], cert["join"], "the certificate")
    order = report.get("submodular_order")
    if order is not None:
        if sorted(order) != list(range(d)):
            _fail(op, f"submodular order {order} is not a permutation")
        meet, join = ref.min_max_tables(order, d)
        _check_pair(op, d, functions, meet, join, f"min/max under the order {order}")
    witness = report.get("witness")
    if witness is not None:
        a, b = witness["node"]
        table = ref.parse_table(witness["table"])
        if witness["quadruple"] != [a, b, a, b]:
            _fail(op, f"witness quadruple {witness['quadruple']} is not a self-loop at {(a, b)}")
        if len(table) != d * d or not ref.soft_exchange_violation(d, table, a, b):
            _fail(op, f"witness view shows no strict soft exchange violation at {(a, b)}")
    elif verdict == "NP_HARD" and not finite:
        _fail(op, "general-valued NP_HARD verdict without a witness")


def _terms(instance, language):
    named = {f["name"]: ref.parse_table(f["table"]) for f in language["functions"]}
    named.update({f["name"]: ref.parse_table(f["table"]) for f in instance.get("functions", [])})
    return [(named[t["function"]], tuple(t["scope"])) for t in instance["terms"]]


def check_solve(op, code, report):
    language, instance = op.data["language"], op.data["instance"]
    d, n = language["domain"], instance["nodes"]
    terms = _terms(instance, language)
    if op.data["grid"] is not None:
        grid_d, unaries, edges = op.data["grid"]
        optimum = Fraction(ref.grid_l1_optimum(grid_d, unaries, edges))
    else:
        optimum = ref.instance_optimum(d, n, terms)
    assignment = report["assignment"]
    if len(assignment) != n or not all(0 <= x < d for x in assignment):
        _fail(op, "the assignment does not label every node within the domain")
    cost = ref.parse_cost(report["cost"])
    own = ref.evaluate(d, terms, assignment)
    if code != (4 if cost is ref.INF else 0):
        _fail(op, f"exit code {code} for cost {report['cost']}")
    if cost != own:
        _fail(op, f"reported cost {report['cost']} but the assignment costs {own}")
    if cost != optimum:
        _fail(op, f"reported cost {report['cost']} but the optimum is {optimum}")


def check_reduce(op, code, report):
    if code != 0:
        _fail(op, f"exit code {code}")
    instance, decoder = report["instance"], report["decoder"]
    d = op.data["language"]["domain"]
    terms = _terms(instance, op.data["language"])
    optimum = ref.instance_optimum(d, instance["nodes"], terms)
    if optimum is ref.INF:
        _fail(op, "the emitted instance is infeasible")
    offset, slope = ref.parse_cost(decoder["offset"]), ref.parse_cost(decoder["slope"])
    decoded = (offset - optimum) / slope
    n, edges = op.data["vertices"], op.data["edges"]
    if decoder["kind"] == "maxcut":
        expected = ref.max_cut(n, edges)
    elif decoder["kind"] == "mis":
        expected = ref.max_independent_set(n, edges)
    else:
        _fail(op, f"unknown decoder kind {decoder['kind']!r}")
    if decoded != expected:
        _fail(op, f"decoded {decoder['kind']} {decoded}, but the graph's value is {expected}")
    if decoder.get("verified") is not True:
        _fail(op, "--verify did not mark the reduction verified")


CHECKS = {"classify": check_classify, "solve": check_solve, "reduce": check_reduce}


def _comparable(code, out):
    if code == 1:
        return code, None
    report = json.loads(out)
    report.pop("timings", None)
    return code, report


def check_rounds(ops, rounds) -> None:
    first = rounds[0]
    for op, (code, _, out, err) in zip(ops, first):
        if is_failure(code, err):
            if not (op.data.get("known_fault") and BUDGET_FAULT in err):
                _fail(op, f"failed: {err.strip()}")
            continue
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            _fail(op, f"exit code {code} with output that is not JSON: {out[:200]!r}")
        CHECKS[op.argv[0]](op, code, report)
    for results in rounds[1:]:
        for op, again, once in zip(ops, results, first):
            if _comparable(again[0], again[2]) != _comparable(once[0], once[2]):
                _fail(op, "a later round gave another output than the first")
