"""Seeded inputs and the pipelines of each workload.

``WORKLOADS[name](seed, workdir)`` generates the workload's inputs from the
seed, writes them as documents into `workdir` and returns the pipelines;
the first one doubles as the warm-up.
The library only ever sees those files (and, for the two library-only
steps, objects parsed from them).  Rank 2 throughout.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import verify
from rauzy import actions, generate, graphs, patterns, serialize
from rauzy.words import FreeGroup

G = FreeGroup(2)


@dataclass
class Pipeline:
    name: str
    size: dict                          # |V|, |E|, radius, window, points...
    run: Callable                       # run(session) -> None
    top: bool = False                   # on the top rung of the ladder


def write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def schreier_doc(rng: random.Random, n: int) -> dict:
    """The Schreier graph of two seeded random permutations of n points."""
    walks = []
    for _ in range(G.rank):
        perm = list(range(n))
        rng.shuffle(perm)
        walks.append(perm)
    act = actions.FiniteAction(G, [f"p{i}" for i in range(n)], walks)
    return serialize.graph_to_doc(act.to_graph())


# -- sofic: graph -> cycle -> selector -> certificate -> windows -> SFT cover

SOFIC_WINDOW, SOFIC_DEPTH, SOFIC_EXPAND = 4, 7, 6
SOFIC_LADDER = (8, 16, 32, 32)         # Schreier graphs, |E| = 4n; two on
SOFIC_DENSE = 1                        # the top rung, one dense on 4 vertices


def sofic(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    out = []
    docs = []
    for i, n in enumerate(SOFIC_LADDER):
        while True:
            doc = schreier_doc(rng, n)
            if graphs.is_minimal(serialize.graph_from_doc(doc))[0]:
                break
        docs.append((f"schreier{n}-{i}", doc, n == SOFIC_LADDER[-1]))
    for i in range(SOFIC_DENSE):
        while True:
            g = generate.random_minimal_graph(G, rng, 4)
            if len(g.vertices) == 4:
                break
        docs.append((f"dense{i}", serialize.graph_to_doc(g), False))
    for label, doc, top in docs:
        path = write(workdir, f"sofic-{label}.json", doc)
        vertex = rng.choice(doc["vertices"])
        size = {"V": len(doc["vertices"]), "E": len(doc["edges"]),
                "window": SOFIC_WINDOW, "depth": SOFIC_DEPTH,
                "radius": SOFIC_EXPAND}
        out.append(Pipeline(f"sofic/{label}", size,
                            _sofic_run(workdir, label, path, doc, vertex),
                            top))
    return out


def _sofic_run(workdir, label, path, doc, vertex):
    g = verify.Graph(doc)

    def run(s):
        rep = s.cli(["cycle", path, "--vertex", vertex], {0},
                    lambda r, c: verify.reduced_cycle(
                        g, r["witnesses"]["cycle"], vertex))
        cycle = rep["witnesses"]["cycle"]
        rep = s.cli(["selector", "synth", path, "--cycle",
                     ",".join(map(str, cycle))], {0},
                    lambda r, c: verify.selector(
                        g, cycle, r["witnesses"]["selector"]))
        sel = rep["witnesses"]["selector"]
        sel_path = write(workdir, f"sofic-{label}-selector.json", sel)
        rep = s.cli(["certify-minimal", sel_path, "--window", str(SOFIC_WINDOW),
                     "--depth", str(SOFIC_DEPTH)], {0},
                    lambda r, c: verify.certificate(
                        r, g, sel, SOFIC_WINDOW, SOFIC_DEPTH))
        s.count("selectors.probes", rep["witnesses"]["probes"])
        s.count("selectors.probe_words", rep["witnesses"]["probes"]
                * verify.ball_size(SOFIC_WINDOW))
        windows = {}
        s.cli(["selector", "expand", sel_path, "--radius", str(SOFIC_EXPAND)],
              {0}, lambda r, c: windows.update(
                  z0=verify.expansion(g, sel, r, SOFIC_EXPAND)))
        rep = s.cli(["sofic-witness", sel_path], {0},
                    lambda r, c: verify.sofic(g, sel, r, windows["z0"]))
        s.count("selectors.witness_patterns", len(rep["witnesses"]["sft"]["forbidden"]))
    return run


# -- solve: graph -> exact integer solution -> transitive finite action

SOLVE_LADDER = (5, 6, 7)               # vertices; |E| is fixed per rung
SOLVE_EDGES = {5: 36, 6: 48, 7: 60}
SOLVE_PER_VERDICT = {5: 2, 6: 2, 7: 5}  # inputs per rung and per LP verdict
# LP verdicts taken per rung, whatever they are: enough for both quotas on
# more than nine seeds in ten, so that set-up does the same work from seed
# to seed; a rung draws on only when its quotas are not met
SOLVE_CANDIDATES = {5: 130, 6: 80, 7: 120}


def lp_feasible(doc: dict) -> bool:
    """Float LP oracle (HiGHS): is there a balanced weighting with every
    weight >= 1?  Built from the document, not from the library."""
    import numpy as np
    from scipy.optimize import linprog

    vertices = doc["vertices"]
    edges = doc["edges"]
    n, k = len(vertices), len(edges)
    vid = {v: i for i, v in enumerate(vertices)}
    rows = []
    for i, e in enumerate(edges):
        if i < e["bar"]:
            row = np.zeros(n + k)
            row[n + i], row[n + e["bar"]] = 1, -1
            rows.append(row)
    for v in range(n):
        for x in verify.LETTERS:
            for end in ("source", "range"):
                row = np.zeros(n + k)
                row[v] = -1
                for i, e in enumerate(edges):
                    if vid[e[end]] == v and e["label"] == x:
                        row[n + i] = 1
                rows.append(row)
    res = linprog(np.zeros(n + k), A_eq=np.array(rows), b_eq=np.zeros(len(rows)),
                  bounds=[(1, None)] * (n + k), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS gave no verdict: {res.message}")
    return res.status == 0


def _connected(doc: dict) -> bool:
    seen = {doc["vertices"][0]}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for e in doc["edges"]:
            if e["source"] == v and e["range"] not in seen:
                seen.add(e["range"])
                stack.append(e["range"])
    return len(seen) == len(doc["vertices"])


def valid_relations(rng: random.Random, n: int) -> list:
    """The relations of ``generate.random_valid_graph`` with the vertex
    count fixed at n: per letter, each directed pair kept with probability
    0.35, then missing out/in degrees repaired.  Each pair gives an edge
    and its bar."""
    relations = []
    for _ in range(G.rank):
        rel = {(v, w) for v in range(n) for w in range(n)
               if rng.random() < 0.35}
        for v in range(n):
            if not any(x == v for x, _ in rel):
                rel.add((v, rng.randrange(n)))
            if not any(y == v for _, y in rel):
                rel.add((rng.randrange(n), v))
        relations.append(rel)
    return relations


def solve(seed: int, workdir: str) -> list:
    # three_star, which has a solution, is a fixed first input: the warm-up
    # then costs the same on every seed
    inputs = [("three_star", serialize.graph_to_doc(graphs.three_star(G)),
               True, False)]
    rng = random.Random(seed)
    for n in SOLVE_LADDER:
        found = {True: [], False: []}
        tried = 0
        while tried < SOLVE_CANDIDATES[n] or any(
                len(docs) < SOLVE_PER_VERDICT[n] for docs in found.values()):
            relations = valid_relations(rng, n)
            if 2 * sum(map(len, relations)) != SOLVE_EDGES[n]:
                continue
            doc = serialize.graph_to_doc(
                graphs.RauzyGraph.from_relations(G, n, relations))
            if not _connected(doc):
                continue
            tried += 1
            found[lp_feasible(doc)].append(doc)
        for verdict, docs in found.items():
            for i, doc in enumerate(docs[:SOLVE_PER_VERDICT[n]]):
                label = f"n{n}-{'sol' if verdict else 'none'}{i}"
                inputs.append((label, doc, verdict, n == SOLVE_LADDER[-1]))
    out = []
    for label, doc, verdict, top in inputs:
        path = write(workdir, f"solve-{label}.json", doc)
        size = {"V": len(doc["vertices"]), "E": len(doc["edges"])}
        out.append(Pipeline(f"solve/{label}", size,
                            _solve_run(workdir, label, path, doc, verdict),
                            top))
    return out


def _solve_run(workdir, label, path, doc, feasible):
    g = verify.Graph(doc)

    def check_solve(r, code):
        verify.need((code == 0) == feasible and
                    (r["verdict"] == "ok") == feasible,
                    f"solve verdict {r['verdict']!r} disagrees with HiGHS")
        if feasible:
            m = r["witnesses"]["measured"]
            verify.need(g.same_as(m), "solve: the graph changed")
            verify.balanced(g, m["mu"], m["m"])

    def run(s):
        rep = s.cli(["measure", "solve", path], {0, 1}, check_solve)
        s.count("measured.solves")
        if rep["verdict"] != "ok":
            return
        m = rep["witnesses"]["measured"]
        s.count("measured.solved")
        s.count("measured.weight_bits", verify.weight_bits(m["mu"], m["m"]))
        mpath = write(workdir, f"solve-{label}-measured.json", m)
        rep = s.cli(["finite-action", mpath, "--transitive"], {0},
                    lambda r, c: verify.action(g, m, r))
        s.count("actions.points", len(rep["witnesses"]["action"]["points"]))
    return run


# -- realize: hinted weights -> finite action -> periodic window

REALIZE_POINTS = (1000, 2000, 4000)    # finite action only, both families
REALIZE_WINDOW_POINTS = (8, 12, 16, 20)  # and the window, families alternating
REALIZE_SAMPLE = 2000                  # window words checked per window


def _base_weights(g) -> tuple:
    """The least integer solution of two_cycle (all ones, 2 points) and of
    three_star (mu = 2, 1, 1; 4 points): a-edges weigh 1, b-loops mu."""
    mu = {"u": 2, "v": 1, "w": 1} if len(g.vertices) == 3 else {"u": 1, "v": 1}
    m = [1 if e.label < 2 else mu[g.vertices[e.source]] for e in g.edges]
    return mu, m


def realize(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    out = []
    families = (graphs.two_cycle, graphs.three_star)
    ladder = [(f, p) for f in families for p in REALIZE_POINTS]
    ladder += [(families[i % 2], p) for i, p in enumerate(REALIZE_WINDOW_POINTS)]
    for family, points in ladder:
        g = family(G)
        mu, m = _base_weights(g)
        verify.balanced(verify.Graph(serialize.graph_to_doc(g)), mu, m)
        per_k = sum(mu.values())
        k = points // per_k
        # the hint divides k * weights by a seeded denominator coprime
        # to k, so the hint route must clear it exactly
        den = rng.choice([d for d in (7, 11, 13, 17, 19, 23, 29, 31)
                          if k % d])
        doc = serialize.graph_to_doc(g)
        doc["mu"] = {v: str(Fraction(k * x, den)) for v, x in mu.items()}
        doc["m"] = [str(Fraction(k * x, den)) for x in m]
        want = {"mu": {v: str(k * x) for v, x in mu.items()},
                "m": [str(k * x) for x in m]}
        label = f"{family.__name__}-{points}"
        path = write(workdir, f"realize-{label}.json", doc)
        size = {"V": len(g.vertices), "E": len(g.edges), "points": points,
                "k": k, "hint_denominator": den}
        out.append(Pipeline(
            f"realize/{label}", size,
            _realize_run(workdir, label, path, doc, want, rng.randrange(2**32)),
            points in (REALIZE_POINTS[-1], REALIZE_WINDOW_POINTS[-1])))
    return out


def _realize_run(workdir, label, path, doc, want, sample_seed):
    g = verify.Graph(doc)
    points = sum(int(x) for x in want["mu"].values())

    def check_hint(r, code):
        m = r["witnesses"]["measured"]
        verify.need({"mu": m["mu"], "m": m["m"]} == want,
                    "solve --hint: not the exact lcm scaling of the hint")
        verify.balanced(g, m["mu"], m["m"])

    def run(s):
        rep = s.cli(["measure", "solve", path, "--hint"], {0}, check_hint)
        s.count("measured.solves")
        s.count("measured.solved")
        m = rep["witnesses"]["measured"]
        s.count("measured.weight_bits", verify.weight_bits(m["mu"], m["m"]))
        mpath = write(workdir, f"realize-{label}-measured.json", m)
        s.cli(["finite-action", mpath, "--transitive"], {0},
              lambda r, c: verify.action(g, m, r))
        s.count("actions.points", points)
        if points > REALIZE_WINDOW_POINTS[-1]:
            return

        def window():
            with open(mpath) as fh:
                mg = serialize.graph_from_doc(json.load(fh))
            return actions.realize_minimal_neighborhood(mg)

        def check(result):
            act, win, report = result
            index = {p: i for i, p in enumerate(act.points)}
            rng = random.Random(sample_seed)
            items = win.items
            sample = {}
            for i in rng.sample(range(len(items)), min(REALIZE_SAMPLE, len(items))):
                word, point = items[i]
                sample["".join(verify.LETTERS[x] for x in word)] = index[point]
            verify.realization(g, m, [list(w) for w in act.walks],
                               [str(p[0]) for p in act.points], sample,
                               len(items), report.radius, report.complete)
            verify.need(report.complete, "realize: report is not complete")

        _, win, _ = s.call("realize_minimal_neighborhood", window, check)
        s.count("actions.window_words", len(win))
    return run


# -- windows: graph SFT windows, the marker SFT, return sets, criterion 1

WINDOWS_RADIUS = 5
WINDOWS_SCHREIER = 50
SPECIAL_RADIUS = 4
ISO_SAMPLE = 2048                      # configs sent through iota/window_j


def windows(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    out = []
    # the Schreier window comes first and is the warm-up: the other
    # pipelines would leave set-up to little more than import time
    graphs_in = [
        ("schreier50", schreier_doc(rng, WINDOWS_SCHREIER)),
        ("two_cycle", serialize.graph_to_doc(graphs.two_cycle(G))),
        ("letter_flow", serialize.graph_to_doc(graphs.letter_flow_graph(G))),
    ]
    for label, doc in graphs_in:
        path = write(workdir, f"windows-{label}.json", doc)
        size = {"V": len(doc["vertices"]), "E": len(doc["edges"]),
                "radius": WINDOWS_RADIUS}
        out.append(Pipeline(f"windows/xg-{label}-r{WINDOWS_RADIUS}", size,
                            _xg_run(path, doc, WINDOWS_RADIUS),
                            label != "two_cycle"))
    depth = rng.randint(1, SPECIAL_RADIUS - 1)
    pattern = {"e": 1}
    for x in rng.sample(verify.LETTERS, rng.randint(0, 4)):
        pattern[x] = 1 if x in "aA" else 0
    ppath = write(workdir, "windows-pattern.json", {"values": pattern})
    out.append(Pipeline("windows/special-return", {"radius": SPECIAL_RADIUS,
                                                   "depth": depth,
                                                   "pattern": len(pattern)},
                        _special_run(workdir, ppath, depth), False))
    out.append(Pipeline("windows/criterion1", {"configs": 2 ** 17,
                                               "roundtrips": ISO_SAMPLE},
                        _iso_run(rng.randrange(2**32)), True))
    return out


def _xg_run(path, doc, radius):
    g = verify.Graph(doc)

    def run(s):
        rep = s.cli(["xg-window", path, "--radius", str(radius)], {0},
                    lambda r, c: verify.configs(g, r, radius))
        s.count("patterns.configs", rep["witnesses"]["count"])
    return run


def _special_run(workdir, ppath, depth):
    def run(s):
        chi = {}
        s.cli(["special-symbol", "--rank", "2", "--gen", "a", "--radius",
               str(SPECIAL_RADIUS)], {0},
              lambda r, c: chi.update(verify.marker(r, SPECIAL_RADIUS)))
        s.count("special.window_words", 2 * len(chi))
        wpath = write(workdir, "windows-chi.json",
                      {"rank": 2, "values": {verify.name(w): v
                                             for w, v in chi.items()}})
        rep = s.cli(["return-set", wpath, "--pattern", ppath, "--depth",
                     str(depth)], {0}, lambda r, c: verify.returns(r, depth))
        s.count("special.returns", len(rep["witnesses"]["returns"]))
    return run


def _iso_run(sample_seed):
    """Acceptance criterion 1 on a seeded sample: the pattern graph of the
    binary F = B_1 patterns has 2^17 admissible configs on B_1, and
    iota/window_j are mutually inverse and injective on the sample."""
    F = G.ball(1)

    def enumerate_configs():
        pg = graphs.pattern_graph(G, patterns.Alphabet([0, 1]), F)
        return patterns.enumerate_window(graphs.xg_sft(pg), F, cap=2 ** 18)

    def roundtrip(configs):
        rng = random.Random(sample_seed)
        picked = [configs[i] for i in rng.sample(range(len(configs)), ISO_SAMPLE)]
        flats = [patterns.iota(G, F, c) for c in picked]
        backs = [patterns.window_j(G, F, f, F) for f in flats]
        return picked, flats, backs

    def check_roundtrip(result):
        picked, flats, backs = result
        ball2 = set(verify.ball(2))
        for c, flat, back in zip(picked, flats, backs):
            verify.need({"".join(verify.LETTERS[x] for x in w)
                         for w in flat.domain} == ball2,
                        "iota: image is not on B_2")
            for g0, pat in c.items:
                for f in F:
                    verify.need(flat[_mul(g0, f)] == pat[f], "iota: wrong value")
            verify.need(back == c, "window_j does not invert iota")
        verify.need(len({f.items for f in flats}) == len(flats),
                    "iota is not injective on the sample")

    def run(s):
        configs = s.call("enumerate_window", enumerate_configs,
                         lambda r: verify.need(len(r) == 2 ** 17,
                                               "criterion 1: not 2^17 configs"))
        s.count("patterns.configs", len(configs))
        s.call("iota/window_j", lambda: roundtrip(configs), check_roundtrip)
        s.count("patterns.roundtrips", ISO_SAMPLE)
    return run


def _mul(u, v):
    """Reduced product of two letter tuples, written here rather than taken
    from rauzy.words so that the check does not lean on the library."""
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == v[j] ^ 1:
        i -= 1
        j += 1
    return u[:i] + v[j:]


# -- deep: the graph SFT windows of two_cycle past radius 5

DEEP_RADII = (6, 7)


def deep(seed: int, workdir: str) -> list:
    """Kept apart from `windows`: at radii 6 and 7 window enumeration
    recurses once per ball word and raises RecursionError, so every step
    here fails until that is fixed.  Fixed structure; the seed is unused."""
    doc = serialize.graph_to_doc(graphs.two_cycle(G))
    path = write(workdir, "deep-two_cycle.json", doc)
    return [Pipeline(f"deep/xg-two_cycle-r{r}",
                     {"V": 2, "E": len(doc["edges"]), "radius": r},
                     _xg_run(path, doc, r), r == DEEP_RADII[-1])
            for r in DEEP_RADII]


WORKLOADS = {"sofic": sofic, "solve": solve, "realize": realize,
             "windows": windows, "deep": deep}
