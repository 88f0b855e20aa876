"""Command-line surface tying the library into reproducible runs.

Every command reads JSON documents, prints a deterministic JSON report on
stdout (command, input digests, verdict, witnesses; no timings, so reports
are byte-identical across runs) and a one-line timing summary on stderr.

Exit codes: 0 = verdict ok/true, 1 = verdict false/counterexample/error on
well-formed input, 2 = malformed input.
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


class VerdictFalse(Exception):
    """Carries a false/counterexample verdict (exit code 1)."""

    def __init__(self, verdict, witnesses=None):
        super().__init__(str(verdict))
        self.verdict = verdict
        self.witnesses = witnesses or {}


def _read_doc(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except ValueError as exc:   # also an integer past the int-string limit
        raise DocumentError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise DocumentError(
            f"{path}: invalid JSON (nested too deeply)") from None
    return doc, digest


def _bare_graph(doc):
    g = graph_from_doc(doc)
    return g.graph if isinstance(g, MeasuredRauzyGraph) else g


def _measured_graph(doc, need="this command needs mu/m weights"):
    g = graph_from_doc(doc)
    if not isinstance(g, MeasuredRauzyGraph):
        raise DocumentError(f"graph: {need}")
    return g


def _nonnegative(args, *names) -> None:
    """Refuse a negative count option (a radius, window, depth, cap or
    vertex bound) as malformed input."""
    for name in names:
        value = getattr(args, name)
        if value < 0:
            option = "--" + name.replace("_", "-")
            raise DocumentError(f"{option}: must not be negative, got {value}")


def _write_dot(path, render, obj):
    if path:
        with open(path, "w") as fh:
            fh.write(render(obj))


# -- command implementations: return (verdict, witnesses, exit_ok)

def cmd_validate(args):
    doc, digest = _read_doc(args.graph)
    g = _bare_graph(doc)
    violations = graphs.validate(g)
    _write_dot(args.dot, graph_to_dot, g)
    if violations:
        return {"graph": digest}, "invalid", {"violations": violations}, False
    return {"graph": digest}, "ok", {}, True


def cmd_minimal(args):
    doc, digest = _read_doc(args.graph)
    g = _bare_graph(doc)
    bad = graphs.validate(g)
    if bad:
        raise VerdictFalse("invalid graph", {"violations": bad})
    ok, witness = graphs.is_minimal(g)
    wit = {} if ok else {"unreachable_pair": list(witness)}
    return {"graph": digest}, ok, wit, ok


def cmd_conditions(args):
    doc, digest = _read_doc(args.graph)
    g = _bare_graph(doc)
    bad = graphs.validate(g)
    if bad:
        raise VerdictFalse("invalid graph", {"violations": bad})
    c1, c2, c3 = graphs.check_conditions(g)
    verdict = {"c1": c1, "c2": c2, "c3": c3}
    return {"graph": digest}, verdict, {}, c1 and c2 and c3


def cmd_xg_window(args):
    _nonnegative(args, "radius", "cap")
    doc, digest = _read_doc(args.graph)
    g = _bare_graph(doc)
    sft = graphs.xg_sft(g)
    configs = enumerate_window(sft, g.group.ball(args.radius), cap=args.cap)
    docs = [window_to_doc(g.group, c)["values"] for c in configs]
    return ({"graph": digest}, "ok",
            {"radius": args.radius, "count": len(configs), "configs": docs},
            True)


def cmd_cycle(args):
    doc, digest = _read_doc(args.graph)
    g = _bare_graph(doc)
    if args.vertex not in g.vertices:
        raise DocumentError(f"--vertex: unknown vertex {args.vertex!r}")
    cycle = selectors.find_cycle(g, g.vertices.index(args.vertex))
    labels = "".join(g.group.format_letter(g.edges[e].label) for e in cycle)
    return ({"graph": digest}, "ok",
            {"cycle": list(cycle), "labels": labels}, True)


def cmd_selector_synth(args):
    doc, digest = _read_doc(args.graph)
    g = _bare_graph(doc)
    cycle = _parse_cycle_arg(args.cycle, g)
    sel = selectors.synthesize_recurrent(g, cycle)
    violations = selectors.validate_recurrent(sel, cycle)
    if violations:
        raise VerdictFalse("synthesized selector is not recurrent",
                           {"violations": violations})
    return ({"graph": digest}, "ok",
            {"selector": selector_to_doc(sel, cycle)}, True)


def _parse_cycle_arg(text, g):
    try:
        cycle = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DocumentError("--cycle: must be comma-separated edge indices")
    if not all(map(_index_of(len(g.edges)), cycle)):
        raise DocumentError("--cycle: edge index out of range")
    bad = selectors.check_cycle(g, cycle)
    if bad:
        raise VerdictFalse("not a simple reduced cycle", {"violations": bad})
    return cycle


def cmd_selector_expand(args):
    _nonnegative(args, "radius")
    doc, digest = _read_doc(args.selector)
    sel, _ = selector_from_doc(doc)
    group = sel.graph.group
    xw = selectors.x_t_window(sel, args.radius)
    zw = selectors.z0_window(sel, args.radius)
    return ({"selector": digest}, "ok",
            {"radius": args.radius,
             "x_t": window_to_doc(group, xw)["values"],
             "z0": window_to_doc(group, zw)["values"]},
            True)


def cmd_sofic_witness(args):
    doc, digest = _read_doc(args.selector)
    sel, _ = selector_from_doc(doc)
    wit = selectors.sofic_witness(sel)
    phi = {k: str(v) for k, v in sorted(wit.phi.items())}
    return ({"selector": digest}, "ok",
            {"sft": sft_to_doc(wit.sft), "phi": phi,
             "range_edges": sorted(wit.range_edges)},
            True)


def cmd_certify_minimal(args):
    _nonnegative(args, "window", "depth")
    doc, digest = _read_doc(args.selector)
    sel, cycle = selector_from_doc(doc)
    if args.cycle is not None:
        cycle = _parse_cycle_arg(args.cycle, sel.graph)
    if cycle is None:
        raise DocumentError(
            "selector document carries no cycle; pass --cycle")
    result = selectors.certify_minimality(sel, cycle, args.window, args.depth)
    group = sel.graph.group
    if isinstance(result, MinimalityCertificate):
        return {"selector": digest}, "certified", asdict(result), True
    wit = {
        "g0": group.format_word(result.g0),
        "h": group.format_word(result.h),
        "u": group.format_word(result.u),
        "expected": str(result.expected),
        "got": str(result.got),
    }
    return {"selector": digest}, "counterexample", wit, False


def cmd_measure_solve(args):
    doc, digest = _read_doc(args.graph)
    if args.hint:
        mg = _measured_graph(doc, "--hint needs mu/m in the document")
        solution = measured.integer_solution(mg.graph, mg)
    else:
        solution = measured.integer_solution(_bare_graph(doc))
    if solution is None:
        return ({"graph": digest}, "no full-support solution", {}, False)
    return ({"graph": digest}, "ok",
            {"measured": measured_to_doc(solution)}, True)


def cmd_finite_action(args):
    doc, digest = _read_doc(args.graph)
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
    return ({"graph": digest}, "ok",
            {"action": action_to_doc(act), "pi": pi_doc,
             "orbits": len(actions.orbits(act))},
            True)


def cmd_fiber_product(args):
    doc, digest = _read_doc(args.spec)
    left = action_from_doc(_need(doc, "left", "spec", strict=False))
    right = action_from_doc(_need(doc, "right", "spec", strict=False))
    f1 = _spec_map(doc, "f1", left)
    f2 = _spec_map(doc, "f2", right)
    prod, pr1, pr2 = actions.fiber_product(left, right, f1, f2)
    return ({"spec": digest}, "ok",
            {"action": action_to_doc(prod),
             "proj1": {point_name(p): v for p, v in pr1.items()},
             "proj2": {point_name(p): v for p, v in pr2.items()},
             "orbits": len(actions.orbits(prod))},
            True)


def _spec_map(doc, key, act):
    raw = _need(doc, key, "spec", "must map point names", _is_object,
                strict=False)
    return {p: _need(raw, p, f"spec.{key}") for p in act.points}


def cmd_special_symbol(args):
    _nonnegative(args, "radius")
    group = _made("--rank", FreeGroup, args.rank)
    s0 = group.parse_letter(args.gen)
    if s0 & 1:
        raise DocumentError("--gen: must be a positive generator")
    sft, proj = special.special_symbol_sft(group, s0)
    x0 = special.x0_window(group, s0, args.radius)
    chi = special.chi_window(group, s0, args.radius)
    inputs = {"args": hashlib.sha256(
        f"{args.rank}:{args.gen}:{args.radius}".encode()).hexdigest()}
    return (inputs, "ok",
            {"sft": sft_to_doc(sft),
             "proj": dict(sorted(proj.items())),
             "x0": window_to_doc(group, x0)["values"],
             "chi": window_to_doc(group, chi)["values"]},
            True)


def cmd_return_set(args):
    _nonnegative(args, "depth")
    wdoc, wdigest = _read_doc(args.window)
    pdoc, pdigest = _read_doc(args.pattern)
    group, config = window_from_doc(wdoc)
    pattern = pattern_from_doc(group, pdoc)
    returns = special.return_set(group, config, pattern, args.depth)
    return ({"window": wdigest, "pattern": pdigest}, "ok",
            {"depth": args.depth,
             "returns": [group.format_word(w) for w in returns]},
            True)


def cmd_search_condition_witness(args):
    _nonnegative(args, "max_vertices")
    group = _made("--rank", FreeGroup, args.rank)
    found = graphs.find_condition_witnesses(group, args.max_vertices)
    wit = {}
    for key, g in found.items():
        wit[key] = graph_to_doc(g) if g is not None else None
    ok = all(v is not None for v in found.values())
    inputs = {"args": hashlib.sha256(
        f"{args.rank}:{args.max_vertices}".encode()).hexdigest()}
    verdict = "found both" if ok else "not all witnesses found"
    return inputs, verdict, wit, ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rauzy",
        description="Rauzy graphs, sofic minimal subshifts and finite "
                    "actions of free groups, with finite-window certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the Rauzy graph axioms")
    p.add_argument("graph")
    p.add_argument("--dot", help="write a DOT rendering to this path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("minimal", help="decide graph minimality")
    p.add_argument("graph")
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("conditions",
                       help="the three reduced-path connectivity conditions")
    p.add_argument("graph")
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("xg-window",
                       help="enumerate the graph SFT's window configs")
    p.add_argument("graph")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.set_defaults(func=cmd_xg_window)

    p = sub.add_parser("cycle", help="find a simple reduced cycle")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.set_defaults(func=cmd_cycle)

    psel = sub.add_parser("selector", help="edge selector operations")
    selsub = psel.add_subparsers(dest="selector_command", required=True)
    p = selsub.add_parser("synth", help="synthesize a recurrent selector")
    p.add_argument("graph")
    p.add_argument("--cycle", required=True,
                   help="comma-separated edge indices")
    p.set_defaults(func=cmd_selector_synth)
    p = selsub.add_parser("expand", help="window of the generated point")
    p.add_argument("selector")
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=cmd_selector_expand)

    p = sub.add_parser("sofic-witness",
                       help="the SFT cover of the selector's subshift")
    p.add_argument("selector")
    p.set_defaults(func=cmd_sofic_witness)

    p = sub.add_parser("certify-minimal",
                       help="finite syndetic-return certificate")
    p.add_argument("selector")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--cycle", help="override the document's cycle")
    p.set_defaults(func=cmd_certify_minimal)

    pm = sub.add_parser("measure", help="measured graph operations")
    msub = pm.add_subparsers(dest="measure_command", required=True)
    p = msub.add_parser("solve", help="integer full-support solution")
    p.add_argument("graph")
    p.add_argument("--hint", action="store_true",
                   help="scale the document's mu/m instead of solving")
    p.set_defaults(func=cmd_measure_solve)

    p = sub.add_parser("finite-action",
                       help="realize an integer measured graph")
    p.add_argument("graph")
    p.add_argument("--transitive", action="store_true")
    p.add_argument("--generator", type=int, default=0,
                   help="generator whose cycles are merged (default first)")
    p.add_argument("--dot", help="write a DOT rendering to this path")
    p.set_defaults(func=cmd_finite_action)

    p = sub.add_parser("fiber-product",
                       help="amalgamate two actions over a common factor")
    p.add_argument("spec", help="JSON with left, right, f1, f2")
    p.set_defaults(func=cmd_fiber_product)

    p = sub.add_parser("special-symbol",
                       help="the cyclic-subgroup marker SFT")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=cmd_special_symbol)

    p = sub.add_parser("return-set",
                       help="positions moving a window into a pattern")
    p.add_argument("window")
    p.add_argument("--pattern", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_return_set)

    p = sub.add_parser("search-condition-witness",
                       help="exhaustive search for condition separations")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--rank", type=int, default=2)
    p.set_defaults(func=cmd_search_condition_witness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    command = args.command
    for extra in ("selector_command", "measure_command"):
        if getattr(args, extra, None):
            command += " " + getattr(args, extra)
    try:
        inputs, verdict, witnesses, ok = args.func(args)
        code = 0 if ok else 1
    except VerdictFalse as exc:
        inputs, verdict, witnesses, code = {}, exc.verdict, exc.witnesses, 1
    except DocumentError as exc:
        inputs, verdict, witnesses, code = ({}, "input error",
                                            {"error": str(exc)}, 2)
    except (ValueError, CapExceededError) as exc:
        inputs, verdict, witnesses, code = {}, "error", {"error": str(exc)}, 1
    report = {"command": command, "inputs": inputs, "verdict": verdict,
              "witnesses": witnesses}
    print(report_text(report))
    print(f"timings: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
