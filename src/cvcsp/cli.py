"""Command-line surface: classify / solve / graph / reduce.

File formats (all exact; costs are int, "p/q" strings, or "inf"):

  language: {"domain": k, "functions": [{"name": str, "arity": m,
             "table": [cost, ...]}]}   (row-major tables)
  instance: {"nodes": n, "terms": [{"function": name, "scope": [i, ...]}],
             "functions": [...]}       (optional inline gadget functions)
  graph:    edge-list text ("u v" per line, 0-based) or
            {"vertices": n, "edges": [[u, v], ...]}

Exit codes: 0 tractable / solved, 1 input or usage error, 2 NP-hard,
3 general-valued statuses, 4 infeasible instance, 5 no reduction witness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from fractions import Fraction

from . import __version__
from .model import (
    DEFAULT_BRUTE_BUDGET,
    INF,
    BudgetExceeded,
    CostFunction,
    InputError,
    Language,
    VcspInstance,
    as_cost,
    check_domain_size,
)
from .express import DEFAULT_CHAIN_DEPTH, DEFAULT_MAX_VIEWS, PoolBudget
from .pairgraph import build_graph, to_dot
from .dichotomy import (
    Classification,
    GENERAL_CONJECTURED_TRACTABLE,
    GENERAL_UNKNOWN,
    NP_HARD,
    TRACTABLE,
    classify,
)
from .hardness import (
    SourceGraph,
    exact_max_cut,
    exact_max_independent_set,
    normalize_witness,
    reduce_maxcut,
    reduce_mis,
    require_verifiable,
    verify_reduction,
    witness_from_loop,
)
from .solver import solve

ENV_PREFIX = "CVCSP_"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NP_HARD = 2
EXIT_GENERAL = 3
EXIT_INFEASIBLE = 4
EXIT_NO_WITNESS = 5

VERDICTS = (TRACTABLE, NP_HARD, GENERAL_CONJECTURED_TRACTABLE, GENERAL_UNKNOWN)


# ---------------------------------------------------------------- costs/json


def cost_to_json(c):
    if c is INF:
        return "inf"
    if isinstance(c, int):
        return c
    if c.denominator == 1:
        return c.numerator
    return f"{c.numerator}/{c.denominator}"


def numeral(text: str) -> int:
    """The integer that an optional "-" and ASCII digits spell; ValueError
    for any other text, such as "1_0", "+1", " 2 " or non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid numeral {text!r}")
    return int(text)


def cost_from_json(v):
    if isinstance(v, bool):
        raise InputError(f"invalid cost {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        if v == "inf":
            return INF
        if "/" in v:
            num, _, den = v.partition("/")
            try:
                return Fraction(numeral(num), numeral(den))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"invalid rational {v!r}") from exc
        try:
            return numeral(v)
        except ValueError as exc:
            raise InputError(f"invalid cost {v!r}") from exc
    raise InputError(f"invalid cost {v!r} (use int, 'p/q' or 'inf')")


def _jsonable(value):
    """Recursively convert provenance/report values into JSON-safe data."""
    if value is INF or isinstance(value, Fraction):
        return cost_to_json(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


# ------------------------------------------------------------------- loading


def _read_file(path: str, parse=json.loads):
    """parse(the file's text); a file that cannot be read, is not UTF-8 or
    holds invalid JSON is an input error naming the path.  So is JSON that
    the decoder refuses: nesting deeper than the recursion limit, or an
    integer longer than the interpreter converts (4,300 digits by default)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}")
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply")
    except ValueError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_language(doc, where: str = "language") -> Language:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object")
    domain = doc.get("domain")
    if not _is_int(domain):
        raise InputError(f"{where}: 'domain' must be an integer")
    functions = doc.get("functions")
    if not isinstance(functions, list):
        raise InputError(f"{where}: 'functions' must be a list")
    check_domain_size(domain, f"{where}: ")  # before any function, so the error names no function
    parsed = tuple(
        _parse_function(spec, domain, f"{where}: functions[{pos}]")
        for pos, spec in enumerate(functions)
    )
    try:
        return Language(domain_size=domain, functions=parsed)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def _parse_function(spec, domain: int, ctx: str) -> CostFunction:
    if not isinstance(spec, dict):
        raise InputError(f"{ctx}: expected an object")
    name = spec.get("name")
    arity = spec.get("arity")
    table = spec.get("table")
    if not isinstance(name, str) or not name:
        raise InputError(f"{ctx}: 'name' must be a non-empty string")
    if not _is_int(arity) or arity < 1:
        raise InputError(f"{ctx}: 'arity' must be a positive integer")
    if not isinstance(table, list):
        raise InputError(f"{ctx}: 'table' must be a list")
    try:
        # a JSON int needs no conversion; CostFunction's as_cost validates it
        entries = tuple(v if type(v) is int else cost_from_json(v) for v in table)
        return CostFunction(name, arity, domain, entries)
    except InputError as exc:
        message = _entry_error(table) or exc
        raise InputError(f"{ctx}: {message}") from None


def _entry_error(table):
    """The first entry that is not a cost, as "table[j]: <message>", or
    None.  Called only once building the function has failed, so the
    entries are not checked twice on the way to a result."""
    for j, v in enumerate(table):
        try:
            as_cost(cost_from_json(v))
        except InputError as exc:
            return f"table[{j}]: {exc}"
    return None


def load_language(path: str) -> Language:
    return parse_language(_read_file(path), where=path)


def parse_instance(doc, lang: Language, where: str = "instance") -> VcspInstance:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object")
    nodes = doc.get("nodes")
    if not _is_int(nodes) or nodes < 0:
        raise InputError(f"{where}: 'nodes' must be a non-negative integer")
    functions = doc.get("functions", [])
    terms_doc = doc.get("terms", [])
    if not isinstance(functions, list):
        raise InputError(f"{where}: 'functions' must be a list")
    if not isinstance(terms_doc, list):
        raise InputError(f"{where}: 'terms' must be a list")
    parsed = [
        _parse_function(spec, lang.domain_size, f"{where}: functions[{pos}]")
        for pos, spec in enumerate(functions)
    ]
    inline = {}
    for pos, f in enumerate(parsed):
        if f.name in inline:
            raise InputError(f"{where}: functions[{pos}]: duplicate function name {f.name!r}")
        inline[f.name] = f
    terms = []
    for pos, term in enumerate(terms_doc):  # an error's context is formatted only when raised
        if not isinstance(term, dict):
            raise InputError(f"{where}: terms[{pos}]: expected an object")
        name = term.get("function")
        scope = term.get("scope")
        if not isinstance(name, str):
            raise InputError(f"{where}: terms[{pos}]: 'function' must be a name")
        if not isinstance(scope, list) or not all(map(_is_int, scope)):
            raise InputError(f"{where}: terms[{pos}]: 'scope' must be a list of node indices")
        f = inline.get(name)
        if f is None:
            try:
                f = lang.get(name)
            except InputError:
                raise InputError(f"{where}: terms[{pos}]: unknown function {name!r}")
        terms.append((f, tuple(scope)))
    try:
        return VcspInstance(node_count=nodes, terms=tuple(terms))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def serialize_instance(instance: VcspInstance, inline_functions=()) -> dict:
    doc = {"nodes": instance.node_count}
    if inline_functions:
        doc["functions"] = [
            {
                "name": f.name,
                "arity": f.arity,
                "table": [cost_to_json(v) for v in f.table],
            }
            for f in inline_functions
        ]
    doc["terms"] = [
        {"function": f.name, "scope": list(scope)} for f, scope in instance.terms
    ]
    return doc


def load_instance(path: str, lang: Language) -> VcspInstance:
    return parse_instance(_read_file(path), lang, where=path)


def load_source_graph(path: str) -> SourceGraph:
    # a JSON document is an object, since its text starts with "{"
    doc = _read_file(path, lambda text: json.loads(text) if text.lstrip().startswith("{") else text)
    if isinstance(doc, dict):
        vertices = doc.get("vertices")
        edges = doc.get("edges", [])
        if not _is_int(vertices) or vertices < 0:
            raise InputError(f"{path}: 'vertices' must be a non-negative integer")
        if not isinstance(edges, list):
            raise InputError(f"{path}: 'edges' must be a list")
        for pos, edge in enumerate(edges):
            if not (isinstance(edge, list) and len(edge) == 2 and all(map(_is_int, edge))):
                raise InputError(f"{path}: edges[{pos}] must be a pair of integers")
        return SourceGraph(vertices, tuple((u, v) for u, v in edges))
    edges = []
    for line_no, line in enumerate(doc.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{path}:{line_no}: expected 'u v'")
        try:
            edges.append((numeral(parts[0]), numeral(parts[1])))
        except ValueError:
            raise InputError(f"{path}:{line_no}: expected integer vertex ids")
    vertices = 1 + max((max(u, v) for u, v in edges), default=-1)
    return SourceGraph(vertices, tuple(edges))


# ------------------------------------------------------------------- reports


def graph_summary(graph) -> dict:
    edges, soft = graph.edge_count(), graph.soft_count()
    return {
        "nodes": len(graph.nodes),
        "edges": edges,
        "soft": soft,
        "hard": edges - soft,
        "m_size": len(graph.M),
        "truncated": graph.truncated,
    }


def classification_report(lang: Language, cls: Classification, timings=None) -> dict:
    report = {
        "verdict": cls.verdict,
        "mode": lang.mode,
        "domain": lang.domain_size,
        "functions": [f.name for f in lang.functions],
    }
    if cls.reason:
        report["reason"] = cls.reason
    unaries = [f.name for f in lang.unary_functions()]
    if unaries:
        report["note"] = (
            "unary functions are stored but never drive the classification: "
            + ", ".join(unaries)
        )
    pair = cls.certificate
    if pair is not None:
        # the signs on M, read off the pair: +1 exactly when a is the meet of (a, b)
        report["certificate"] = {
            "sigma": {f"{a},{b}": 1 if pair.meet_of(a, b) == a else -1 for a, b in cls.graph.M},
            "meet": list(pair.meet),
            "join": list(pair.join),
            "verified_against": [f.name for f in lang.functions],
            "mode_used": "full",
        }
    else:
        report["certificate"] = None
    report["submodular_order"] = (
        list(cls.submodular_order) if cls.submodular_order is not None else None
    )
    if cls.witness is not None:
        report["witness"] = {
            "node": list(cls.witness.node),
            "quadruple": list(cls.witness.node) * 2,
            "view": _jsonable(cls.witness.view.provenance),
            "table": [cost_to_json(v) for v in cls.witness.view.table.table],
        }
    else:
        report["witness"] = None
    if cls.graph is not None:
        report["graph"] = graph_summary(cls.graph)
    report["stats"] = _jsonable(cls.stats)
    if timings is not None:
        report["timings"] = timings
    return report


def render_text(report: dict) -> str:
    lines = [f"verdict: {report['verdict']}"]
    if "reason" in report:
        lines.append(f"reason: {report['reason']}")
    lines.append(f"mode: {report['mode']}  domain: {report['domain']}")
    lines.append("functions: " + (", ".join(report["functions"]) or "(none)"))
    if "note" in report:
        lines.append(f"note: {report['note']}")
    cert = report.get("certificate")
    if cert:
        sigma = " ".join(f"({k})={'+1' if v > 0 else '-1'}" for k, v in cert["sigma"].items())
        lines.append(f"sigma: {sigma}")
        lines.append(f"meet: {cert['meet']}")
        lines.append(f"join: {cert['join']}")
    order = report.get("submodular_order")
    if order is not None:
        lines.append("submodular order: " + "<".join(str(x) for x in order))
    witness = report.get("witness")
    if witness:
        lines.append(
            f"soft self-loop witness at ({witness['node'][0]},{witness['node'][1]}) "
            f"quadruple {tuple(witness['quadruple'])}"
        )
    if report.get("graph"):
        lines.append(render_summary_text(report["graph"]).rstrip("\n"))
    if "timings" in report:
        lines.append(f"time: {report['timings']['total_s']}s")
    return "\n".join(lines) + "\n"


def render_solve_text(report: dict) -> str:
    lines = [
        f"cost: {report['cost']}",
        "assignment: " + " ".join(str(x) for x in report["assignment"]),
        f"method: {report['method']}",
        f"classification: {report['classification']}",
    ]
    if "timings" in report:
        lines.append(f"time: {report['timings']['total_s']}s")
    return "\n".join(lines) + "\n"


def render_summary_text(report: dict) -> str:
    return (
        f"pair graph: nodes={report['nodes']} edges={report['edges']} "
        f"(soft={report['soft']} hard={report['hard']}) m={report['m_size']} "
        f"truncated={'yes' if report['truncated'] else 'no'}\n"
    )


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    elif "verdict" in report:
        print(render_text(report), end="")
    else:
        print(render_solve_text(report), end="")


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")


# -------------------------------------------------------------------- config


def _int_option(args, flag: str, default: int, least: int) -> int:
    """The flag's value, else its environment variable's (the flag's name in
    capitals after CVCSP_), else the default; a value below least is an
    error naming the flag or the variable it came from."""
    name = flag[2:].replace("-", "_")
    value, source = getattr(args, name), flag
    if value is None:
        source = f"environment {ENV_PREFIX}{name.upper()}"
        raw = os.environ.get(ENV_PREFIX + name.upper())
        try:
            value = default if raw is None else numeral(raw)
        except ValueError:
            raise InputError(f"{source}={raw!r} is not an integer")
    if value < least:
        raise InputError(f"{source} must be at least {least}, got {value}")
    return value


def _pool_budget(args) -> PoolBudget:
    return PoolBudget(
        max_views=_int_option(args, "--pool-budget", DEFAULT_MAX_VIEWS, 1),
        chain_depth=_int_option(args, "--chain-depth", DEFAULT_CHAIN_DEPTH, 0),
    )


# ------------------------------------------------------------------ commands


def _verdict_exit(verdict: str) -> int:
    if verdict == TRACTABLE:
        return EXIT_OK
    if verdict == NP_HARD:
        return EXIT_NP_HARD
    return EXIT_GENERAL


def cmd_classify(args) -> int:
    lang = load_language(args.language)
    budget = _pool_budget(args)
    start = time.perf_counter()
    cls = classify(lang, budget)
    timings = None
    if not args.no_timings:
        timings = {"total_s": round(time.perf_counter() - start, 6)}
    report = classification_report(lang, cls, timings)
    _emit(report, args.json)
    return _verdict_exit(cls.verdict)


def _cache_path(language_path: str) -> str:
    return language_path + ".cls.json"


def _cache_key(language_text: str, budget: PoolBudget) -> dict:
    """Everything a cached verdict depends on: the language file's text,
    the classification settings and the program version."""
    return {
        "text": language_text,
        "pool_budget": budget.max_views,
        "chain_depth": budget.chain_depth,
        "version": __version__,
    }


def _cached_classification(cache_path: str, key: dict, lang: Language):
    """The classification cached under `key`, or None for any kind of miss."""
    try:
        cached = _read_file(cache_path)
    except InputError:
        return None
    if not isinstance(cached, dict) or cached.get("key") != key:
        return None
    report = cached.get("report")
    if not isinstance(report, dict) or report.get("verdict") not in VERDICTS:
        return None
    order = report.get("submodular_order")
    if order is not None and not (
        isinstance(order, list)
        and all(map(_is_int, order))
        and sorted(order) == list(range(lang.domain_size))
    ):
        return None
    return Classification(
        verdict=report["verdict"],
        submodular_order=tuple(order) if order is not None else None,
    )


def _write_cache(cache_path: str, doc: dict) -> None:
    """Replace the cache file in one step; a cache that cannot be written
    is skipped, since it only saves time."""
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(cache_path)),
            prefix=os.path.basename(cache_path) + ".",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
            os.replace(tmp, cache_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass


def _classification_for_solve(args, lang: Language, language_text: str) -> Classification:
    budget = _pool_budget(args)
    if args.no_cache:
        return classify(lang, budget)
    cache_path = _cache_path(args.language)
    key = _cache_key(language_text, budget)
    cls = _cached_classification(cache_path, key, lang)
    if cls is not None:
        return cls
    cls = classify(lang, budget)
    report = classification_report(lang, cls, timings=None)
    _write_cache(cache_path, {"key": key, "report": report})
    return cls


def cmd_solve(args) -> int:
    budget = _int_option(args, "--brute-budget", DEFAULT_BRUTE_BUDGET, 1)
    # one read of the language file gives both the language and the cache key
    text, doc = _read_file(args.language, lambda text: (text, json.loads(text)))
    lang = parse_language(doc, where=args.language)
    instance = load_instance(args.instance, lang)
    cls = _classification_for_solve(args, lang, text)
    start = time.perf_counter()
    result = solve(instance, cls, budget=budget)
    report = {
        "assignment": list(result.assignment),
        "cost": cost_to_json(result.cost),
        "method": result.method,
        "classification": cls.verdict,
        "stats": _jsonable(result.stats),
    }
    if not args.no_timings:
        report["timings"] = {"total_s": round(time.perf_counter() - start, 6)}
    _emit(report, args.json)
    if result.cost is INF:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_graph(args) -> int:
    if args.json and not args.summary:
        raise InputError("graph: --json needs --summary (the DOT export has no JSON form)")
    lang = load_language(args.language)
    graph = build_graph(lang, _pool_budget(args))
    if not args.summary:
        text = to_dot(graph)
    elif args.json:
        text = json.dumps(graph_summary(graph), indent=2) + "\n"
    else:
        text = render_summary_text(graph_summary(graph))
    if args.out:
        _write_file(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


def reduction_witness(cls: Classification, kind: str):
    """The normalized witness of an NP-hard classification in the form kind
    asks for ("maxcut", "mis" or "auto"), or None when no soft self-loop in
    the pool has that form."""
    witness = normalize_witness(cls.witness.view, *cls.witness.node)
    wanted = {"maxcut": "both_finite", "mis": "one_infinite"}.get(kind, witness.kind)
    if witness.kind == wanted:
        return witness
    found = (witness_from_loop(cls.graph.pool.views, node, wanted) for node in cls.graph.m_bar)
    return next(filter(None, found), None)


def cmd_reduce(args) -> int:
    lang = load_language(args.language)
    src = load_source_graph(args.graph)
    if args.verify:
        require_verifiable(src.vertex_count, lang.domain_size)
    cls = classify(lang, _pool_budget(args))
    if cls.witness is None:
        print(
            json.dumps(
                {
                    "error": "no soft self-loop witness",
                    "verdict": cls.verdict,
                    "detail": "reductions require an NP-hard language with an "
                    "extractable soft self-loop",
                }
            ),
            file=sys.stderr,
        )
        return EXIT_NO_WITNESS
    witness = reduction_witness(cls, args.kind)
    if witness is None:
        print(json.dumps({"error": f"no {args.kind} witness at any soft self-loop"}), file=sys.stderr)
        return EXIT_NO_WITNESS
    if witness.kind == "both_finite":
        instance, decoder = reduce_maxcut(src, witness)
        reference = exact_max_cut
    else:
        instance, decoder = reduce_mis(src, witness)
        reference = exact_max_independent_set
    inline = sorted({f for f, _ in instance.terms}, key=lambda f: f.name)
    doc = serialize_instance(instance, inline_functions=inline)
    decoder_doc = {
        "kind": decoder.kind,
        "offset": cost_to_json(decoder.offset),
        "slope": cost_to_json(decoder.slope),
        "formula": "decoded = (offset - optimum) / slope",
        "witness_pair": list(witness.pair_node),
    }
    if args.verify:
        mismatch = verify_reduction(src, instance, decoder, reference)
        if mismatch is not None:
            print(
                json.dumps(
                    {
                        "error": "reduction verification failed",
                        "expected": _jsonable(mismatch.expected),
                        "decoded": _jsonable(mismatch.decoded),
                    }
                ),
                file=sys.stderr,
            )
            return EXIT_INPUT
        decoder_doc["verified"] = True
    if args.out:
        _write_file(args.out, json.dumps(doc, indent=2))
        _write_file(args.out + ".decoder.json", json.dumps(decoder_doc, indent=2))
    else:
        print(json.dumps({"instance": doc, "decoder": decoder_doc}, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------- entrypoint


OPTIONS = {
    "--json": dict(action="store_true", help="machine-readable output"),
    "--no-timings": dict(action="store_true", help="omit timings"),
    "--pool-budget": dict(type=numeral, default=None, metavar="N"),
    "--chain-depth": dict(type=numeral, default=None, metavar="N"),
    "--brute-budget": dict(type=numeral, default=None, metavar="N"),
}


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one line, exit code 1."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvcsp",
        description="Classify conservative valued constraint languages, solve "
        "instances, export pair graphs, and emit hardness reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, *flags):
        for flag in flags:
            p.add_argument(flag, **OPTIONS[flag])

    p = sub.add_parser("classify", help="decide tractable vs NP-hard")
    p.add_argument("language")
    options(p, "--json", "--no-timings", "--pool-budget", "--chain-depth")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="classify-then-solve an instance")
    p.add_argument("language")
    p.add_argument("instance")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the classification cache")
    options(p, "--json", "--no-timings", "--pool-budget", "--chain-depth", "--brute-budget")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("graph", help="export the closed pair graph as DOT")
    p.add_argument("language")
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--summary", action="store_true", help="counts instead of DOT")
    options(p, "--json", "--pool-budget", "--chain-depth")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("reduce", help="emit a max-cut / independent-set reduction")
    p.add_argument("language")
    p.add_argument("graph")
    p.add_argument("--kind", choices=("maxcut", "mis", "auto"), default="auto")
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--verify", action="store_true",
                   help="check the decoder against brute force (small graphs)")
    options(p, "--json", "--pool-budget", "--chain-depth")
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None) -> int:
    # no reference to the parser outlives parsing, so its reference cycles
    # are collected while young instead of waiting for a full collection
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except (InputError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`): stdout now writes to the
        # null device, so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before all output was written", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
