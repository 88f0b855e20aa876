"""Command-line surface tying the library into reproducible runs.

Every command reads JSON documents, prints a deterministic JSON report on
stdout (command, input digests, verdict, witnesses; no timings, so reports
are byte-identical across runs) and a one-line timing summary on stderr.

Each leaf command declares in `build_parser` the documents it reads, its
count options and, if it reads no document, the options its report hashes.
`main` alone checks and reads them: it refuses a negative count before any
document is read, then reads each document once and names it in the
report's inputs by the SHA-256 of its bytes, keyed by its argument
(`graph`, `selector`, `spec`, `window`, `pattern`).  `special-symbol` and
`search-condition-witness` read no document and name the SHA-256 of their
options as `args`.  An input error or an error names no input (`{}`).
The handlers `cmd_x(args, *documents)` only compute, and return
(verdict, witnesses, exit_ok).

Exit codes: 0 = verdict ok/true, 1 = verdict false/counterexample/error on
well-formed input, 2 = malformed input (an unwritable `--dot` path too).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict

from . import actions, graphs, measured, selectors, special
from .patterns import CapExceededError, enumerate_window
from .selectors import MinimalityCertificate
from .serialize import (
    DocumentError,
    _index_of,
    _is_object,
    _made,
    _need,
    action_from_doc,
    action_to_doc,
    action_to_dot,
    graph_from_doc,
    graph_to_doc,
    graph_to_dot,
    measured_to_doc,
    pattern_from_doc,
    point_name,
    report_text,
    selector_from_doc,
    selector_to_doc,
    sft_to_doc,
    window_from_doc,
    window_to_doc,
)
from .measured import MeasuredRauzyGraph
from .words import FreeGroup


def _read_doc(path: str, inputs: dict, key: str):
    """The JSON document at path; its SHA-256 goes to inputs[key]."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from None
    inputs[key] = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw)
    except ValueError as exc:   # also an integer past the int-string limit
        raise DocumentError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise DocumentError(
            f"{path}: invalid JSON (nested too deeply)") from None


def _bare_graph(doc):
    g = graph_from_doc(doc)
    return g.graph if isinstance(g, MeasuredRauzyGraph) else g


def _measured_graph(doc, need="this command needs mu/m weights"):
    g = graph_from_doc(doc)
    if not isinstance(g, MeasuredRauzyGraph):
        raise DocumentError(f"graph: {need}")
    return g


def _write_dot(path, render, obj):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(render(obj))
        except OSError as exc:
            raise DocumentError(f"--dot: {exc}") from None


def _cycle_arg(text, g):
    """--cycle as edge indices, and the report refusing them if they are
    not a simple reduced cycle of g (None if they are)."""
    try:
        cycle = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DocumentError("--cycle: must be comma-separated edge indices")
    if not all(map(_index_of(len(g.edges)), cycle)):
        raise DocumentError("--cycle: edge index out of range")
    bad = selectors.check_cycle(g, cycle)
    refused = "not a simple reduced cycle", {"violations": bad}, False
    return cycle, refused if bad else None


# -- command implementations: return (verdict, witnesses, exit_ok)

def cmd_validate(args, doc):
    g = _bare_graph(doc)
    violations = graphs.validate(g)
    _write_dot(args.dot, graph_to_dot, g)
    if violations:
        return "invalid", {"violations": violations}, False
    return "ok", {}, True


def cmd_minimal(args, doc):
    g = _bare_graph(doc)
    bad = graphs.validate(g)
    if bad:
        return "invalid graph", {"violations": bad}, False
    ok, witness = graphs.is_minimal(g)
    return ok, {} if ok else {"unreachable_pair": list(witness)}, ok


def cmd_conditions(args, doc):
    g = _bare_graph(doc)
    bad = graphs.validate(g)
    if bad:
        return "invalid graph", {"violations": bad}, False
    c1, c2, c3 = graphs.check_conditions(g)
    return {"c1": c1, "c2": c2, "c3": c3}, {}, c1 and c2 and c3


def cmd_xg_window(args, doc):
    g = _bare_graph(doc)
    configs = enumerate_window(graphs.xg_sft(g), g.group.ball(args.radius),
                               cap=args.cap)
    docs = [window_to_doc(g.group, c)["values"] for c in configs]
    return "ok", {"radius": args.radius, "count": len(configs),
                  "configs": docs}, True


def cmd_cycle(args, doc):
    g = _bare_graph(doc)
    if args.vertex not in g.vertices:
        raise DocumentError(f"--vertex: unknown vertex {args.vertex!r}")
    cycle = selectors.find_cycle(g, g.vertices.index(args.vertex))
    labels = "".join(g.group.format_letter(g.edges[e].label) for e in cycle)
    return "ok", {"cycle": list(cycle), "labels": labels}, True


def cmd_selector_synth(args, doc):
    g = _bare_graph(doc)
    cycle, refused = _cycle_arg(args.cycle, g)
    if refused:
        return refused
    sel = selectors.synthesize_recurrent(g, cycle)
    bad = selectors.validate_recurrent(sel, cycle)
    if bad:
        return ("synthesized selector is not recurrent",
                {"violations": bad}, False)
    return "ok", {"selector": selector_to_doc(sel, cycle)}, True


def cmd_selector_expand(args, doc):
    sel, _ = selector_from_doc(doc)
    group = sel.graph.group
    xw = selectors.x_t_window(sel, args.radius)
    zw = selectors.z0_window(sel, args.radius)
    return "ok", {"radius": args.radius,
                  "x_t": window_to_doc(group, xw)["values"],
                  "z0": window_to_doc(group, zw)["values"]}, True


def cmd_sofic_witness(args, doc):
    sel, _ = selector_from_doc(doc)
    wit = selectors.sofic_witness(sel)
    phi = {k: str(v) for k, v in sorted(wit.phi.items())}
    return "ok", {"sft": sft_to_doc(wit.sft), "phi": phi,
                  "range_edges": sorted(wit.range_edges)}, True


def cmd_certify_minimal(args, doc):
    sel, cycle = selector_from_doc(doc)
    if args.cycle is not None:
        cycle, refused = _cycle_arg(args.cycle, sel.graph)
        if refused:
            return refused
    if cycle is None:
        raise DocumentError(
            "selector document carries no cycle; pass --cycle")
    result = selectors.certify_minimality(sel, cycle, args.window, args.depth)
    if isinstance(result, MinimalityCertificate):
        return "certified", asdict(result), True
    word = sel.graph.group.format_word
    return "counterexample", {
        "g0": word(result.g0), "h": word(result.h), "u": word(result.u),
        "expected": str(result.expected), "got": str(result.got)}, False


def cmd_measure_solve(args, doc):
    if args.hint:
        mg = _measured_graph(doc, "--hint needs mu/m in the document")
        solution = measured.integer_solution(mg.graph, mg)
    else:
        solution = measured.integer_solution(_bare_graph(doc))
    if solution is None:
        return "no full-support solution", {}, False
    return "ok", {"measured": measured_to_doc(solution)}, True


def cmd_finite_action(args, doc):
    mg = _measured_graph(doc)
    rank = mg.graph.group.rank
    if args.transitive and not 0 <= args.generator < rank:
        raise DocumentError(
            f"--generator: no generator {args.generator} at rank {rank}")
    act, pi = actions.build_finite_action(mg)
    if args.transitive:
        act = actions.make_transitive(act, pi, mg, generator=args.generator)
    _write_dot(args.dot, action_to_dot, act)
    pi_doc = {point_name(p): str(v) for p, v in pi.items()}
    return "ok", {"action": action_to_doc(act), "pi": pi_doc,
                  "orbits": len(actions.orbits(act))}, True


def cmd_fiber_product(args, doc):
    left = action_from_doc(_need(doc, "left", "spec", strict=False))
    right = action_from_doc(_need(doc, "right", "spec", strict=False))
    f1 = _spec_map(doc, "f1", left)
    f2 = _spec_map(doc, "f2", right)
    prod, pr1, pr2 = actions.fiber_product(left, right, f1, f2)
    return "ok", {"action": action_to_doc(prod),
                  "proj1": {point_name(p): v for p, v in pr1.items()},
                  "proj2": {point_name(p): v for p, v in pr2.items()},
                  "orbits": len(actions.orbits(prod))}, True


def _spec_map(doc, key, act):
    raw = _need(doc, key, "spec", "must map point names", _is_object,
                strict=False)
    return {p: _need(raw, p, f"spec.{key}") for p in act.points}


def cmd_special_symbol(args):
    group = args.group
    s0 = group.parse_letter(args.gen)
    if s0 & 1:
        raise DocumentError("--gen: must be a positive generator")
    sft, proj = special.special_symbol_sft(group, s0)
    x0 = special.x0_window(group, s0, args.radius)
    chi = special.chi_window(group, s0, args.radius)
    return "ok", {"sft": sft_to_doc(sft), "proj": dict(sorted(proj.items())),
                  "x0": window_to_doc(group, x0)["values"],
                  "chi": window_to_doc(group, chi)["values"]}, True


def cmd_return_set(args, wdoc, pdoc):
    group, config = window_from_doc(wdoc)
    pattern = pattern_from_doc(group, pdoc)
    returns = special.return_set(group, config, pattern, args.depth)
    return "ok", {"depth": args.depth,
                  "returns": [group.format_word(w) for w in returns]}, True


def cmd_search_condition_witness(args):
    found = graphs.find_condition_witnesses(args.group, args.max_vertices)
    wit = {key: graph_to_doc(g) if g is not None else None
           for key, g in found.items()}
    ok = all(v is not None for v in found.values())
    return "found both" if ok else "not all witnesses found", wit, ok


def _leaf(subs, name, func, help, reads=(), counts=(), hashed=()):
    """Add a leaf command run by func(args, *documents).  It declares the
    documents it reads (positional but --pattern), its count options as
    (name, default) pairs (default None: required) and the options hashed
    into the report's inputs.args."""
    p = subs.add_parser(name, help=help)
    p.set_defaults(func=func, command=p.prog.partition(" ")[2],
                   reads=reads, counts=counts, hashed=hashed)
    for doc in reads:
        if doc == "pattern":
            p.add_argument("--pattern", required=True)
        else:
            p.add_argument(doc)
    for count, default in counts:
        p.add_argument("--" + count.replace("_", "-"), type=int,
                       default=default, required=default is None)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rauzy",
        description="Rauzy graphs, sofic minimal subshifts and finite "
                    "actions of free groups, with finite-window certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "validate", cmd_validate, "check the Rauzy graph axioms",
              ("graph",))
    p.add_argument("--dot", help="write a DOT rendering to this path")
    _leaf(sub, "minimal", cmd_minimal, "decide graph minimality", ("graph",))
    _leaf(sub, "conditions", cmd_conditions,
          "the three reduced-path connectivity conditions", ("graph",))
    _leaf(sub, "xg-window", cmd_xg_window,
          "enumerate the graph SFT's window configs", ("graph",),
          (("radius", None), ("cap", 1_000_000)))
    p = _leaf(sub, "cycle", cmd_cycle, "find a simple reduced cycle",
              ("graph",))
    p.add_argument("--vertex", required=True)

    psel = sub.add_parser("selector", help="edge selector operations")
    selsub = psel.add_subparsers(dest="selector_command", required=True)
    p = _leaf(selsub, "synth", cmd_selector_synth,
              "synthesize a recurrent selector", ("graph",))
    p.add_argument("--cycle", required=True,
                   help="comma-separated edge indices")
    _leaf(selsub, "expand", cmd_selector_expand,
          "window of the generated point", ("selector",),
          (("radius", None),))

    _leaf(sub, "sofic-witness", cmd_sofic_witness,
          "the SFT cover of the selector's subshift", ("selector",))
    p = _leaf(sub, "certify-minimal", cmd_certify_minimal,
              "finite syndetic-return certificate", ("selector",),
              (("window", None), ("depth", None)))
    p.add_argument("--cycle", help="override the document's cycle")

    pm = sub.add_parser("measure", help="measured graph operations")
    msub = pm.add_subparsers(dest="measure_command", required=True)
    p = _leaf(msub, "solve", cmd_measure_solve,
              "integer full-support solution", ("graph",))
    p.add_argument("--hint", action="store_true",
                   help="scale the document's mu/m instead of solving")

    p = _leaf(sub, "finite-action", cmd_finite_action,
              "realize an integer measured graph", ("graph",))
    p.add_argument("--transitive", action="store_true")
    p.add_argument("--generator", type=int, default=0,
                   help="generator whose cycles are merged (default first)")
    p.add_argument("--dot", help="write a DOT rendering to this path")
    _leaf(sub, "fiber-product", cmd_fiber_product,
          "amalgamate two actions over a common factor (spec: JSON with "
          "left, right, f1, f2)", ("spec",))

    p = _leaf(sub, "special-symbol", cmd_special_symbol,
              "the cyclic-subgroup marker SFT", (), (("radius", None),),
              ("rank", "gen", "radius"))
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--gen", required=True)
    _leaf(sub, "return-set", cmd_return_set,
          "positions moving a window into a pattern", ("window", "pattern"),
          (("depth", None),))
    p = _leaf(sub, "search-condition-witness", cmd_search_condition_witness,
              "exhaustive search for condition separations", (),
              (("max_vertices", None),), ("rank", "max_vertices"))
    p.add_argument("--rank", type=int, default=2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()

    def report(inputs, verdict, witnesses):
        return report_text({"command": args.command, "inputs": inputs,
                            "verdict": verdict, "witnesses": witnesses})

    # a negative count is refused before any document is read; rendering
    # fails too on an int past the int-to-str digit limit
    try:
        for name, _ in args.counts:
            value = getattr(args, name)
            if value < 0:
                option = "--" + name.replace("_", "-")
                raise DocumentError(
                    f"{option}: must not be negative, got {value}")
        inputs = {}
        if args.hashed:
            key = ":".join(str(getattr(args, name)) for name in args.hashed)
            inputs["args"] = hashlib.sha256(key.encode()).hexdigest()
        if "rank" in args:
            args.group = _made("--rank", FreeGroup, args.rank)
        # the documents are freed as the handler returns, not held while
        # the report is rendered
        verdict, witnesses, ok = args.func(args, *(
            _read_doc(getattr(args, name), inputs, name)
            for name in args.reads))
        text, code = report(inputs, verdict, witnesses), 0 if ok else 1
    except DocumentError as exc:
        text, code = report({}, "input error", {"error": str(exc)}), 2
    except (ValueError, CapExceededError) as exc:
        text, code = report({}, "error", {"error": str(exc)}), 1
    print(text)
    print(f"timings: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
