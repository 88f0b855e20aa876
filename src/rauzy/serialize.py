"""JSON document formats for graphs, selectors, actions, windows and SFTs.

One document shape per object kind; words are letter strings ("abA", "e"
for the identity), rationals are JSON integers or "p"/"p/q" strings of
decimal integers with an optional sign, vertices and points are named by
strings.  Parsing is strict: any malformed field raises
DocumentError naming its location.  Emitted documents re-parse to equal
in-memory values, and emitting a parsed document reproduces it.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Any

from .actions import FiniteAction
from .graphs import Edge, RauzyGraph
from .measured import MeasuredRauzyGraph
from .patterns import Alphabet, Domain, Pattern, Sft, WindowConfig
from .selectors import EdgeSelector
from .words import EPSILON, FreeGroup, word_key


class DocumentError(ValueError):
    """A malformed document, with the offending location in the message."""


def _need(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object")
    if key not in doc:
        raise DocumentError(f"{where}.{key}: missing")
    return doc[key]


def _is_int(x) -> bool:
    """Whether x is a JSON integer (true and false are not)."""
    return type(x) is int


def _group(doc: dict, where: str) -> FreeGroup:
    rank = _need(doc, "rank", where)
    if not _is_int(rank) or rank < 1:
        raise DocumentError(f"{where}.rank: must be a positive integer")
    try:
        return FreeGroup(rank)
    except ValueError as exc:
        raise DocumentError(f"{where}.rank: {exc}") from None


def _parse_word(group: FreeGroup, s: Any, where: str):
    if not isinstance(s, str):
        raise DocumentError(f"{where}: words must be strings")
    try:
        return group.parse_word(s)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from None


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_fraction(s: Any, where: str) -> Fraction:
    if not (_is_int(s) or isinstance(s, str) and _RATIONAL.fullmatch(s)):
        raise DocumentError(f"{where}: rationals must be 'p/q' strings")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{where}: {exc}") from None


def format_fraction(x) -> str:
    return str(Fraction(x))


# -- graphs

def graph_to_doc(g: RauzyGraph, mg: MeasuredRauzyGraph | None = None) -> dict:
    names = [str(v) for v in g.vertices]
    if len(set(names)) != len(names):
        raise ValueError("vertex labels do not stringify uniquely")
    doc = {
        "rank": g.group.rank,
        "vertices": names,
        "edges": [
            {
                "source": names[e.source],
                "range": names[e.target],
                "label": g.group.format_letter(e.label),
                "bar": e.bar,
            }
            for e in g.edges
        ],
    }
    if mg is not None:
        doc["mu"] = {names[v]: format_fraction(mg.mu[v])
                     for v in range(len(names))}
        doc["m"] = [format_fraction(x) for x in mg.m]
    return doc


def measured_to_doc(mg: MeasuredRauzyGraph) -> dict:
    return graph_to_doc(mg.graph, mg)


def graph_from_doc(doc: dict) -> RauzyGraph | MeasuredRauzyGraph:
    """Parse a graph document; returns a MeasuredRauzyGraph when the
    document carries weights, else a bare RauzyGraph."""
    group = _group(doc, "graph")
    vertices = _need(doc, "vertices", "graph")
    if (not isinstance(vertices, list)
            or not all(isinstance(v, str) for v in vertices)):
        raise DocumentError("graph.vertices: must be a list of names")
    if len(set(vertices)) != len(vertices):
        raise DocumentError("graph.vertices: duplicate names")
    vid = {v: i for i, v in enumerate(vertices)}
    edges_doc = _need(doc, "edges", "graph")
    if not isinstance(edges_doc, list):
        raise DocumentError("graph.edges: must be a list")
    edges = []
    for i, ed in enumerate(edges_doc):
        where = f"graph.edges[{i}]"
        src = _need(ed, "source", where)
        rng = _need(ed, "range", where)
        lab = _need(ed, "label", where)
        bar = _need(ed, "bar", where)
        if src not in vid:
            raise DocumentError(f"{where}.source: unknown vertex {src!r}")
        if rng not in vid:
            raise DocumentError(f"{where}.range: unknown vertex {rng!r}")
        if not isinstance(lab, str) or len(lab) != 1:
            raise DocumentError(f"{where}.label: must be a single letter")
        try:
            letter = group.parse_letter(lab)
        except ValueError as exc:
            raise DocumentError(f"{where}.label: {exc}") from None
        if not _is_int(bar) or not 0 <= bar < len(edges_doc):
            raise DocumentError(f"{where}.bar: must index an edge")
        edges.append(Edge(vid[src], vid[rng], letter, bar))
    try:
        graph = RauzyGraph(group, vertices, edges)
    except ValueError as exc:
        raise DocumentError(f"graph: {exc}") from None
    if "mu" not in doc and "m" not in doc:
        return graph
    mu_doc = _need(doc, "mu", "graph")
    m_doc = _need(doc, "m", "graph")
    if not isinstance(mu_doc, dict):
        raise DocumentError("graph.mu: must map vertex names to rationals")
    if not isinstance(m_doc, list) or len(m_doc) != len(edges):
        raise DocumentError("graph.m: must list one rational per edge")
    mu = []
    for v in vertices:
        if v not in mu_doc:
            raise DocumentError(f"graph.mu.{v}: missing")
        mu.append(_parse_fraction(mu_doc[v], f"graph.mu.{v}"))
    m = [_parse_fraction(x, f"graph.m[{i}]") for i, x in enumerate(m_doc)]
    try:
        return MeasuredRauzyGraph(graph, tuple(mu), tuple(m))
    except ValueError as exc:
        raise DocumentError(f"graph: {exc}") from None


# -- selectors

def selector_to_doc(sel: EdgeSelector, cycle=None) -> dict:
    g = sel.graph
    fmt = g.group.format_letter
    doc = {
        "graph": graph_to_doc(g),
        "v0": str(g.vertices[sel.v0]),
        "t0": {fmt(s): sel.t0[s] for s in g.group.letters},
        "t1": [{fmt(s): row[s] for s in g.group.letters} for row in sel.t1],
    }
    if cycle is not None:
        doc["cycle"] = list(cycle)
    return doc


def selector_from_doc(doc: dict) -> tuple[EdgeSelector, tuple | None]:
    graph = graph_from_doc(_need(doc, "graph", "selector"))
    if isinstance(graph, MeasuredRauzyGraph):
        graph = graph.graph
    group = graph.group
    v0_name = _need(doc, "v0", "selector")
    if v0_name not in graph.vertices:
        raise DocumentError(f"selector.v0: unknown vertex {v0_name!r}")
    v0 = graph.vertices.index(v0_name)
    t0_doc = _need(doc, "t0", "selector")
    t1_doc = _need(doc, "t1", "selector")
    if not isinstance(t1_doc, list) or len(t1_doc) != len(graph.edges):
        raise DocumentError("selector.t1: must list one row per edge")

    def edge_row(row, where):
        """One edge index per letter, as t0 and every t1 row hold them."""
        out = []
        for s in group.letters:
            c = group.format_letter(s)
            if not isinstance(row, dict) or c not in row:
                raise DocumentError(f"{where}.{c}: missing")
            x = row[c]
            if not _is_int(x) or not 0 <= x < len(graph.edges):
                raise DocumentError(f"{where}.{c}: must index an edge")
            out.append(x)
        return tuple(out)

    t0 = edge_row(t0_doc, "selector.t0")
    t1 = tuple(edge_row(row, f"selector.t1[{i}]")
               for i, row in enumerate(t1_doc))
    try:
        sel = EdgeSelector(graph, v0, t0, t1)
    except ValueError as exc:
        raise DocumentError(f"selector: {exc}") from None
    cycle = None
    if "cycle" in doc:
        cyc = doc["cycle"]
        if (not isinstance(cyc, list)
                or not all(_is_int(e) and 0 <= e < len(graph.edges)
                           for e in cyc)):
            raise DocumentError("selector.cycle: must list edge indices")
        cycle = tuple(cyc)
    return sel, cycle


# -- actions

def point_name(p) -> str:
    if isinstance(p, tuple):
        return ".".join(point_name(x) for x in p)
    return str(p)


def action_to_doc(act: FiniteAction) -> dict:
    names = [point_name(p) for p in act.points]
    if len(set(names)) != len(names):
        raise ValueError("point labels do not stringify uniquely")
    return {
        "rank": act.group.rank,
        "points": names,
        "perms": {
            act.group.format_letter(2 * i): list(act.walks[i])
            for i in range(act.group.rank)
        },
    }


def action_from_doc(doc: dict) -> FiniteAction:
    group = _group(doc, "action")
    points = _need(doc, "points", "action")
    if (not isinstance(points, list)
            or not all(isinstance(p, str) for p in points)):
        raise DocumentError("action.points: must be a list of names")
    perms_doc = _need(doc, "perms", "action")
    walks = []
    for i in range(group.rank):
        c = group.format_letter(2 * i)
        if not isinstance(perms_doc, dict) or c not in perms_doc:
            raise DocumentError(f"action.perms.{c}: missing")
        w = perms_doc[c]
        if (not isinstance(w, list) or len(w) != len(points)
                or not all(_is_int(x) and 0 <= x < len(points)
                           for x in w)):
            raise DocumentError(
                f"action.perms.{c}: must be a permutation as an index list")
        walks.append(w)
    try:
        return FiniteAction(group, points, walks)
    except ValueError as exc:
        raise DocumentError(f"action: {exc}") from None


# -- windows, patterns, SFTs

def _symbol(v, where: str):
    """A window, pattern or alphabet symbol, read or written: a string or a
    JSON integer."""
    if isinstance(v, str) or _is_int(v):
        return v
    raise DocumentError(f"{where}: symbol {v!r} is not a string or an integer")


@lru_cache(maxsize=8)
def _word_names(group: FreeGroup, domain: Domain) -> tuple:
    """The letter strings of a domain's words, formatted once per domain."""
    return tuple(map(group.format_word, domain))


def window_to_doc(group: FreeGroup, config: WindowConfig) -> dict:
    # a symbol passes _symbol or not whatever word it sits at, so each
    # distinct value is checked once
    for v in dict.fromkeys(config.values):
        _symbol(v, "window")
    return {
        "rank": group.rank,
        "values": dict(zip(_word_names(group, config.domain), config.values)),
    }


def _values_from_doc(group: FreeGroup, doc: dict, where: str) -> dict:
    """The word -> symbol map under a window's or pattern's "values"."""
    values = _need(doc, "values", where)
    if not isinstance(values, dict):
        raise DocumentError(f"{where}.values: must map words to symbols")
    out = {}
    for k, v in values.items():
        w = _parse_word(group, k, f"{where}.values.{k}")
        if w in out:
            raise DocumentError(f"{where}.values.{k}: duplicate word")
        out[w] = _symbol(v, f"{where}.values.{k}")
    return out


def window_from_doc(doc: dict) -> tuple[FreeGroup, WindowConfig]:
    group = _group(doc, "window")
    return group, WindowConfig(_values_from_doc(group, doc, "window"))


def pattern_from_doc(group: FreeGroup, doc: dict) -> Pattern:
    return Pattern(_values_from_doc(group, doc, "pattern"))


def sft_to_doc(sft: Sft) -> dict:
    """The SFT with its rules as forbidden patterns, ordered by repr(a):
    the ban {e: a} first, then per letter s the pairs {e: a, s: b} with b
    outside allowed[a, s], by repr(b)."""
    group = sft.group
    names = [group.format_letter(s) for s in group.letters]
    order = sorted(sft.alphabet.symbols, key=repr)
    forbidden = []
    for a in order:
        if a in sft.banned:
            forbidden.append({"e": a})
        for s, name in enumerate(names):
            ok = sft.allowed.get((a, s), sft.alphabet)
            forbidden += [{"e": a, name: b} for b in order if b not in ok]
    return {
        "rank": group.rank,
        "alphabet": [_symbol(a, "sft.alphabet")
                     for a in sft.alphabet],
        "window": [group.format_word(w)
                   for w in sorted(sft.window, key=word_key)],
        "forbidden": forbidden,
    }


def sft_from_doc(doc: dict) -> Sft:
    group = _group(doc, "sft")
    alphabet_doc = _need(doc, "alphabet", "sft")
    if not isinstance(alphabet_doc, list) or not alphabet_doc:
        raise DocumentError("sft.alphabet: must be a nonempty list")
    alphabet = [_symbol(a, f"sft.alphabet[{i}]")
                for i, a in enumerate(alphabet_doc)]
    window_doc = _need(doc, "window", "sft")
    if not isinstance(window_doc, list):
        raise DocumentError("sft.window: must be a list of words")
    window = [_parse_word(group, w, f"sft.window[{i}]")
              for i, w in enumerate(window_doc)]
    forbidden_doc = _need(doc, "forbidden", "sft")
    if not isinstance(forbidden_doc, list):
        raise DocumentError("sft.forbidden: must be a list of patterns")
    steps = {(EPSILON,)} | {(EPSILON, w) for w in window if len(w) == 1}
    symbols = set(alphabet)
    banned, named = [], defaultdict(set)  # named[a, s]: b of {e: a, s: b}
    for i, v in enumerate(forbidden_doc):
        values = _values_from_doc(group, {"values": v}, "pattern")
        support = tuple(sorted(values, key=word_key))
        if support not in steps:
            raise DocumentError(f"sft: forbidden support {list(support)} is "
                                "not one step inside the defining window")
        for a in values.values():
            if a not in symbols:
                raise DocumentError(f"sft.forbidden[{i}]: symbol {a!r} is "
                                    "not in the alphabet")
        if len(support) == 1:
            banned.append(values[EPSILON])
        else:
            named[values[EPSILON], support[1][0]].add(values[support[1]])
    allowed = {key: symbols - bs for key, bs in named.items()}
    try:
        return Sft(group, Alphabet(alphabet), window, banned, allowed)
    except ValueError as exc:
        raise DocumentError(f"sft: {exc}") from None


# -- reports

_SCALARS = frozenset({str, int, float, bool, type(None)})
_unsupported = JSONEncoder().default    # raises the stdlib's TypeError


@lru_cache(maxsize=32)
def _one_call(depth: int):
    """The text of a scalar or of a container of scalars in one encoder
    call: keys sorted, items separated by a newline and the pad of `depth`,
    nothing between the brackets and the first and last items."""
    sep = ",\n" + "  " * depth
    if c_make_encoder is None:
        return JSONEncoder(separators=(sep, ": "), sort_keys=True).encode
    encode = c_make_encoder(None, _unsupported, encode_basestring_ascii,
                            None, ": ", sep, True, False, True)
    return lambda o: "".join(encode(o, 0))


def report_text(obj) -> str:
    """obj as the stdlib's json.dumps writes it with an indent of 2 and
    sorted keys, byte for byte, errors included.

    On Python 3.11 an indent turns json's C encoder off.  Here a container
    of scalars (a leaf) takes one C encoder call, as does each dict of a
    list of non-empty leaf dicts; only the containers above the leaves are
    walked in Python."""
    out: list = []
    _write(obj, 0, out, set())
    return "".join(out)


def _write(o, depth: int, out: list, path: set) -> None:
    if isinstance(o, (str, int, float)) or o is None:
        out.append(_one_call(depth)(o))
    elif isinstance(o, (list, tuple)):
        _write_list(o, depth, out, path)
    elif isinstance(o, dict):
        _write_dict(o, depth, out, path)
    else:
        _unsupported(o)


def _leaf(o, depth: int) -> str:
    """A non-empty container of scalars at `depth`."""
    text = _one_call(depth + 1)(o)
    pad = "\n" + "  " * depth
    return f"{text[0]}{pad}  {text[1:-1]}{pad}{text[-1]}"


def _write_list(items, depth: int, out: list, path: set) -> None:
    if not items:
        out.append("[]")
        return
    if _SCALARS.issuperset(map(type, items)):
        out.append(_leaf(items, depth))
        return
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if (set(map(type, items)) == {dict} and all(items)
            and _SCALARS.issuperset(map(type, chain.from_iterable(
                map(dict.values, items))))):
        encode = _one_call(depth + 2)
        opened, closed = "{" + inner + "  ", inner + "}"
        try:
            rows = [opened + encode(d)[1:-1] + closed for d in items]
        except TypeError:
            pass    # a bad key: the walk below raises the stdlib's error
        else:
            out.append("[" + inner + ("," + inner).join(rows) + outer + "]")
            return
    if id(items) in path:
        raise ValueError("Circular reference detected")
    path.add(id(items))
    sep = "[" + inner
    for item in items:
        out.append(sep)
        _write(item, depth + 1, out, path)
        sep = "," + inner
    out.append(outer + "]")
    path.remove(id(items))


def _write_dict(d: dict, depth: int, out: list, path: set) -> None:
    if not d:
        out.append("{}")
        return
    if _SCALARS.issuperset(map(type, d.values())):
        try:
            out.append(_leaf(d, depth))
            return
        except TypeError:
            pass    # a bad key: the walk below raises the stdlib's error
    if id(d) in path:
        raise ValueError("Circular reference detected")
    path.add(id(d))
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    scalar = _one_call(depth + 1)
    sep = "{" + inner
    for k, v in sorted(d.items()):
        if isinstance(k, str):
            k = encode_basestring_ascii(k)
        elif isinstance(k, (int, float)) or k is None:
            k = f'"{scalar(k)}"'
        else:
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {k.__class__.__name__}")
        out.append(f"{sep}{k}: ")
        _write(v, depth + 1, out, path)
        sep = "," + inner
    out.append(outer + "}")
    path.remove(id(d))


# -- DOT export (one arrow per bar pair, positively labeled representative)

def graph_to_dot(g: RauzyGraph) -> str:
    lines = ["digraph rauzy {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for e in g.edges:
        if e.label & 1:
            continue  # draw the positive representative of each bar pair
        lines.append(
            f'  "{g.vertices[e.source]}" -> "{g.vertices[e.target]}" '
            f'[label="{g.group.format_letter(e.label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def action_to_dot(act: FiniteAction) -> str:
    lines = ["digraph action {"]
    for p in act.points:
        lines.append(f'  "{point_name(p)}";')
    for i, w in enumerate(act.walks):
        c = act.group.format_letter(2 * i)
        for p in range(len(act.points)):
            lines.append(
                f'  "{point_name(act.points[p])}" -> '
                f'"{point_name(act.points[w[p]])}" [label="{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
