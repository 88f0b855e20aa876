"""Spans around the public functions of each rauzy layer.

``Tracer.install()`` replaces every public function of the nine layer
modules with a wrapper that records a span, in every namespace where a
rauzy module bound it (module attributes and ``from ... import`` names
alike), plus ``FreeGroup.ball``, ``sphere`` and ``is_connected``.  Calls
across layers therefore nest.  Functions in ``HOT`` are left alone: they
run once per word, probe or weight, a span each would cost more than the
work, and their time counts toward the caller.  ``uninstall()`` restores
every binding.

Spans are kept in memory as [layer, name, start, end, parent, pipeline,
error] and written out by the caller when the run ends; work counts read at
the boundaries in ``WORK`` add up in ``Tracer.work``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import verify
from rauzy.words import FreeGroup

LAYERS = ("words", "patterns", "graphs", "selectors", "measured", "actions",
          "special", "serialize", "cli")

HOT = {
    "words": {"concat", "mul_letter", "reduce_word", "inverse", "word_key",
              "letter", "letter_index", "letter_sign", "inverse_letter"},
    "selectors": {"x_t", "extend_t1", "edge_symbol"},
    "serialize": {"point_name", "format_fraction", "pattern_to_doc"},
    "patterns": {"compatible", "translate_pattern", "tag_symbol"},
}

METHODS = ("ball", "sphere", "is_connected")


# work counted at span boundaries: (layer, function) -> [(metric, count)],
# count(args, result) read from the call's arguments and result
WORK = {
    ("words", "ball"): [("words.ball_words", lambda a, r: len(r))],
    ("graphs", "is_minimal"): [("graphs.edges", lambda a, r: len(a[0].edges))],
    ("graphs", "check_conditions"): [("graphs.edges", lambda a, r: len(a[0].edges))],
    ("measured", "rational_kernel"): [("measured.system_rows", lambda a, r: len(a[0])),
                                      ("measured.system_vars", lambda a, r: a[1])],
    ("actions", "build_finite_action"):
        [("actions.merges",
          lambda a, r: verify.orbit_count(r[0].walks, len(r[0])) - 1)],
    ("patterns", "enumerate_window"):
        [("patterns.domain_words", lambda a, r: len(a[1]))],
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.pipeline = None
        self.work = defaultdict(int)
        self._bindings: list = []

    # -- spans

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        counted = WORK.get((layer, name), ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = 1
                raise
            finally:
                tracer.close(span)
            for metric, measure in counted:
                tracer.work[metric] += measure(args, result)
            return result
        return wrapper

    def open(self, layer: str, name: str) -> list:
        """Start a span under the innermost open one."""
        span = [layer, name, time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, self.pipeline, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()

    # -- installing the wrappers

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"rauzy.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and name not in HOT.get(layer, ())):
                    targets[obj] = self.wrap(layer, name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "rauzy" and not modname.startswith("rauzy."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._bindings.append((mod, name, obj))
                    setattr(mod, name, targets[obj])
        for name in METHODS:
            original = FreeGroup.__dict__[name]
            self._bindings.append((FreeGroup, name, original))
            setattr(FreeGroup, name, self.wrap("words", name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings.clear()


def self_times(spans: list) -> list:
    """Per span: its duration minus the time its direct children cover
    (spans are properly nested, one thread)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    return [s[3] - s[2] - c for s, c in zip(spans, child)]
