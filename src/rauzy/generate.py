"""Seeded random generators for graphs and measured graphs.

A valid Rauzy graph on n vertices is the same thing as one directed pair
relation per positive generator in which every vertex has an outgoing and
an incoming pair, so sampling relations and repairing degrees samples valid
graphs.  Everything takes an explicit random.Random for reproducibility.
"""

from __future__ import annotations

import random

from .graphs import RauzyGraph, is_connected, is_minimal
from .measured import MeasuredRauzyGraph, integer_solution
from .words import FreeGroup


def random_valid_graph(group: FreeGroup, rng: random.Random,
                       max_vertices: int, density: float = 0.35) -> RauzyGraph:
    """A uniform-ish valid graph: each directed pair kept with the given
    density, then missing out/in degrees repaired."""
    n = rng.randint(1, max_vertices)
    relations = []
    for _ in range(group.rank):
        rel = set()
        for v in range(n):
            for w in range(n):
                if rng.random() < density:
                    rel.add((v, w))
        for v in range(n):
            if not any(x == v for x, _ in rel):
                rel.add((v, rng.randrange(n)))
            if not any(y == v for _, y in rel):
                rel.add((rng.randrange(n), v))
        relations.append(rel)
    return RauzyGraph.from_relations(group, n, relations)


def random_minimal_graph(group: FreeGroup, rng: random.Random,
                         max_vertices: int,
                         max_attempts: int = 10_000) -> RauzyGraph:
    """Rejection-sample valid graphs until one is minimal."""
    for _ in range(max_attempts):
        g = random_valid_graph(group, rng, max_vertices)
        if is_minimal(g)[0]:
            return g
    raise RuntimeError("no minimal graph found; raise max_attempts")


def random_measured_graph(group: FreeGroup, rng: random.Random,
                          max_vertices: int,
                          max_attempts: int = 10_000) -> MeasuredRauzyGraph:
    """A random connected graph together with an integer full-support
    solution of its balance system, by rejection sampling."""
    for _ in range(max_attempts):
        g = random_valid_graph(group, rng, max_vertices)
        if not is_connected(g):
            continue
        mg = integer_solution(g)
        if mg is not None:
            return mg
    raise RuntimeError("no measurable connected graph found; "
                       "raise max_attempts")
