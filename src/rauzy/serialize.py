"""JSON document formats for graphs, selectors, actions, windows and SFTs.

One document shape per object kind; words are letter strings ("abA", "e"
for the identity), rationals are JSON integers or "p"/"p/q" strings of
decimal integers with an optional sign, vertices and points are named by
strings.  Emitted documents re-parse to equal in-memory values, and
emitting a parsed document reproduces it.

Reading is strict.  Every field is read by one reader, `_need`: a required
key of an object, refused unless a test of its value holds, such as
`_list_of` (a list of one kind) or `_index_of` (an index into a list);
words, rationals and symbols have their own readers.  A refusal is a
DocumentError "<location>: <reason>", the location being the document's
name and one ".key" or "[i]" per step into it, as in
"graph.edges[3].bar: must index an edge".
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii

from .actions import FiniteAction
from .graphs import Edge, RauzyGraph
from .measured import MeasuredRauzyGraph
from .patterns import Alphabet, Pattern, Sft, WindowConfig
from .selectors import EdgeSelector
from .words import EPSILON, Domain, FreeGroup, word_key


class DocumentError(ValueError):
    """A malformed document, with the offending location in the message."""


# -- field readers

def _need(doc, key, where: str, reason: str = "", ok=None,
          strict: bool = True):
    """doc[key], refused at where.key for `reason`, {!r} standing for the
    value, unless ok(it) holds; a value that ok cannot take, such as an
    unhashable one, fails.  A doc that is not an object is refused at
    where, or with strict=False as one without the key."""
    if not isinstance(doc, dict) or key not in doc:
        if strict and not isinstance(doc, dict):
            raise DocumentError(f"{where}: expected an object")
        raise DocumentError(f"{where}.{key}: missing")
    x = doc[key]
    if ok is None:
        return x
    try:
        if ok(x):
            return x
    except TypeError:
        pass
    raise DocumentError(f"{where}.{key}: {reason.format(x)}")


def _list_of(item=None, size=None):
    """A test that a value is a list of `size` items (any number if None),
    each passing `item`."""
    return lambda xs: (isinstance(xs, list)
                       and (size is None or len(xs) == size)
                       and (item is None or all(map(item, xs))))


def _index_of(n: int):
    """A test that a value is an index into a list of n."""
    return lambda x: type(x) is int and 0 <= x < n


def _is_name(x) -> bool:
    return isinstance(x, str)


def _is_object(x) -> bool:
    return isinstance(x, dict)


def _is_char(x) -> bool:
    return isinstance(x, str) and len(x) == 1


def _made(where: str, make, *args):
    """make(*args), refused at where if it raises a ValueError."""
    try:
        return make(*args)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{where}: {exc}") from None


def _word(group: FreeGroup, s, where: str):
    if not isinstance(s, str):
        raise DocumentError(f"{where}: words must be strings")
    return _made(where, group.parse_word, s)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rational(s, where: str) -> Fraction:
    if not (type(s) is int or isinstance(s, str) and _RATIONAL.fullmatch(s)):
        raise DocumentError(f"{where}: rationals must be 'p/q' strings")
    return _made(where, Fraction, s)


def _symbol(v, where: str):
    """A window, pattern or alphabet symbol, read or written: a string or a
    JSON integer."""
    if isinstance(v, str) or type(v) is int:
        return v
    raise DocumentError(f"{where}: symbol {v!r} is not a string or an integer")


def _group(doc, where: str) -> FreeGroup:
    rank = _need(doc, "rank", where, "must be a positive integer",
                 lambda r: type(r) is int and r >= 1)
    return _made(f"{where}.rank", FreeGroup, rank)


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


def graph_from_doc(doc: dict, where: str = "graph"
                   ) -> RauzyGraph | MeasuredRauzyGraph:
    """Parse a graph document located at `where`; returns a MeasuredRauzyGraph
    when the document carries weights, else a bare RauzyGraph."""
    group = _group(doc, where)
    vertices = _need(doc, "vertices", where, "must be a list of names",
                     _list_of(_is_name))
    if len(set(vertices)) != len(vertices):
        raise DocumentError(f"{where}.vertices: duplicate names")
    vid = {v: i for i, v in enumerate(vertices)}
    edges_doc = _need(doc, "edges", where, "must be a list", _list_of())
    letters = {group.format_letter(x): x for x in group.letters}
    is_vertex, is_bar = vid.__contains__, _index_of(len(edges_doc))
    edges = []
    for i, ed in enumerate(edges_doc):
        at = f"{where}.edges[{i}]"
        try:
            src = _need(ed, "source", at, "unknown vertex {!r}", is_vertex)
            rng = _need(ed, "range", at, "unknown vertex {!r}", is_vertex)
            lab = _need(ed, "label", at, "must be a single letter", _is_char)
            letter = letters[lab] if lab in letters else _made(
                f"{at}.label", group.parse_letter, lab)  # it refuses
            bar = _need(ed, "bar", at, "must index an edge", is_bar)
        except DocumentError:
            for key in ("source", "range", "label", "bar"):
                _need(ed, key, at)   # a missing key is named first
            raise
        edges.append(Edge(vid[src], vid[rng], letter, bar))
    graph = RauzyGraph(group, vertices, edges)
    if "mu" not in doc and "m" not in doc:
        return graph
    for key in ("mu", "m"):
        _need(doc, key, where)
    mu_doc = _need(doc, "mu", where, "must map vertex names to rationals",
                   _is_object)
    m_doc = _need(doc, "m", where, "must list one rational per edge",
                  _list_of(size=len(edges)))
    mu = [_rational(_need(mu_doc, v, f"{where}.mu"), f"{where}.mu.{v}")
          for v in vertices]
    m = [_rational(x, f"{where}.m[{i}]") for i, x in enumerate(m_doc)]
    return _made(where, MeasuredRauzyGraph, graph, tuple(mu), tuple(m))


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
    graph = graph_from_doc(_need(doc, "graph", "selector"), "selector.graph")
    if isinstance(graph, MeasuredRauzyGraph):
        graph = graph.graph
    n = len(graph.edges)
    v0 = graph.vertices.index(_need(doc, "v0", "selector",
                                    "unknown vertex {!r}",
                                    graph.vertices.__contains__))
    t0_doc = _need(doc, "t0", "selector")
    t1_doc = _need(doc, "t1", "selector", "must list one row per edge",
                   _list_of(size=n))
    names = [graph.group.format_letter(s) for s in graph.group.letters]
    is_edge = _index_of(n)

    def edge_row(row, where):
        """One edge index per letter, as t0 and every t1 row hold them."""
        return tuple([_need(row, c, where, "must index an edge", is_edge,
                            strict=False) for c in names])

    t0 = edge_row(t0_doc, "selector.t0")
    t1 = tuple(edge_row(row, f"selector.t1[{i}]")
               for i, row in enumerate(t1_doc))
    sel = _made("selector", EdgeSelector, graph, v0, t0, t1)
    if "cycle" not in doc:
        return sel, None
    return sel, tuple(_need(doc, "cycle", "selector", "must list edge indices",
                            _list_of(is_edge)))


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
    points = _need(doc, "points", "action", "must be a list of names",
                   _list_of(_is_name))
    perms = _need(doc, "perms", "action")
    is_walk = _list_of(_index_of(len(points)), len(points))
    walks = [_need(perms, group.format_letter(2 * i), "action.perms",
                   "must be a permutation as an index list", is_walk,
                   strict=False)
             for i in range(group.rank)]
    return _made("action", FiniteAction, group, points, walks)


# -- windows, patterns, SFTs

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


def _values(group: FreeGroup, values, where: str) -> dict:
    """A map of words to symbols, as a window's or pattern's "values" and
    each forbidden entry of an SFT hold it."""
    if not isinstance(values, dict):
        raise DocumentError(f"{where}: must map words to symbols")
    out = {}
    for k, v in values.items():
        w = _word(group, k, f"{where}.{k}")
        if w in out:
            raise DocumentError(f"{where}.{k}: duplicate word")
        out[w] = _symbol(v, f"{where}.{k}")
    return out


def window_from_doc(doc: dict) -> tuple[FreeGroup, WindowConfig]:
    group = _group(doc, "window")
    values = _need(doc, "values", "window")
    return group, WindowConfig(_values(group, values, "window.values"))


def pattern_from_doc(group: FreeGroup, doc: dict) -> Pattern:
    return Pattern(_values(group, _need(doc, "values", "pattern"),
                           "pattern.values"))


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


def _rule(group: FreeGroup, rule, where: str, steps, symbols) -> tuple:
    """A forbidden entry read key by key, as (the key naming the identity,
    (the key naming the letter s, s) or None for a ban)."""
    words = list(_values(group, rule, where))
    support = sorted(words, key=word_key)
    if tuple(support) not in steps:
        raise DocumentError(f"{where}: forbidden support {support} is not one "
                            "step inside the defining window")
    for v in rule.values():
        if v not in symbols:
            raise DocumentError(f"{where}: symbol {v!r} is not in the "
                                "alphabet")
    key = dict(zip(words, rule))
    if len(support) == 1:
        return key[EPSILON], None
    return key[EPSILON], (key[support[1]], support[1][0])


_SYMBOL_TYPES = frozenset({str, int})


def sft_from_doc(doc: dict) -> Sft:
    """Read an SFT document.  A forbidden entry is a ban {e: a} or a pair
    {e: a, s: b}, and the b's of the pairs of (a, s) are left out of
    allowed[a, s].  Only the first entry with given keys is read key by
    key; a later one costs a few set operations."""
    group = _group(doc, "sft")
    alphabet = [_symbol(a, f"sft.alphabet[{i}]") for i, a in enumerate(
        _need(doc, "alphabet", "sft", "must be a nonempty list",
              lambda xs: isinstance(xs, list) and len(xs) > 0))]
    window = [_word(group, w, f"sft.window[{i}]") for i, w in enumerate(
        _need(doc, "window", "sft", "must be a list of words", _list_of()))]
    rules = _need(doc, "forbidden", "sft", "must be a list of patterns",
                  _list_of())
    steps = {(EPSILON,)} | {(EPSILON, w) for w in window if len(w) == 1}
    symbols = set(alphabet)
    shapes = {}     # the keys of an entry read before -> _rule of it
    banned, named = [], defaultdict(set)  # named[a, s]: b of {e: a, s: b}
    for i, rule in enumerate(rules):
        keys = tuple(rule) if isinstance(rule, dict) else None
        if keys not in shapes or not (
                _SYMBOL_TYPES.issuperset(map(type, rule.values()))
                and symbols.issuperset(rule.values())):
            shapes[keys] = _rule(group, rule, f"sft.forbidden[{i}]", steps,
                                 symbols)
        e, pair = shapes[keys]
        if pair is None:
            banned.append(rule[e])
        else:
            named[rule[e], pair[1]].add(rule[pair[0]])
    allowed = {key: symbols - bs for key, bs in named.items()}
    return _made("sft", lambda: Sft(group, Alphabet(alphabet), window,
                                    banned, allowed))


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
