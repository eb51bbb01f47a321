"""The solve, graph and reduce commands.  `cli.main` imports this module
only when one of them runs, so `classify` neither compiles nor runs it; the
package's `solver` and `hardness` run at the first call into them, so `graph`
runs neither."""

from __future__ import annotations

import json
import os
import sys
import time

from . import __version__, hardness, solver
from .model import DEFAULT_BRUTE_BUDGET, INF, InputError, Language, VcspInstance
from .express import PoolBudget
from .pairgraph import build_graph, to_dot
from .dichotomy import Classification, classify
from .cli import (
    EXIT_INFEASIBLE, EXIT_INPUT, EXIT_NO_WITNESS, EXIT_OK, VERDICTS, _emit, _int_option, _is_int,
    _jsonable, _pool_budget, _read_file, classification_report, cost_to_json, graph_summary,
    load_instance, load_language, load_source_graph, parse_language, render_summary_text,
)


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


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")


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
    import tempfile  # only a cache miss writes a file

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
    result = solver.solve(instance, cls, budget=budget)
    report = {
        "assignment": list(result.assignment),
        "cost": cost_to_json(result.cost),
        "method": result.method,
        "classification": cls.verdict,
        "stats": _jsonable(result.stats),
    }
    if not args.no_timings:
        report["timings"] = {"total_s": round(time.perf_counter() - start, 6)}
    _emit(report, args.json, render_solve_text)
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
    witness = hardness.normalize_witness(cls.witness.view, *cls.witness.node)
    wanted = {"maxcut": "both_finite", "mis": "one_infinite"}.get(kind, witness.kind)
    if witness.kind == wanted:
        return witness
    found = (hardness.witness_from_loop(cls.graph.pool.views, node, wanted) for node in cls.graph.m_bar)
    return next(filter(None, found), None)


def cmd_reduce(args) -> int:
    lang = load_language(args.language)
    src = load_source_graph(args.graph)
    if args.verify:
        hardness.require_verifiable(src.vertex_count, lang.domain_size)
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
        instance, decoder = hardness.reduce_maxcut(src, witness)
        reference = hardness.exact_max_cut
    else:
        instance, decoder = hardness.reduce_mis(src, witness)
        reference = hardness.exact_max_independent_set
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
        mismatch = hardness.verify_reduction(src, instance, decoder, reference)
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


COMMANDS = {"solve": cmd_solve, "graph": cmd_graph, "reduce": cmd_reduce}
