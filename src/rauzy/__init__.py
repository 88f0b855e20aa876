"""Rauzy graphs, sofic minimal subshifts and finite actions of free groups.

The package is organized along the objects it manipulates:

  words      exact reduced-word arithmetic, Cayley balls and domains
  patterns   patterns, SFTs, window enumeration, the window isomorphism
  graphs     Rauzy graphs, validation, minimality, graph SFTs
  selectors  edge selectors, recurrent synthesis, sofic witnesses,
             finite minimality certificates
  measured   weighted graphs, balance, exact integer solutions
  actions    finite actions, transitivity, fiber products, periodic windows
  special    the cyclic-subgroup marker SFT and return sets
  serialize  JSON document formats and DOT export
  cli        the `rauzy` command-line tool
"""

from .words import Domain, FreeGroup
from .patterns import (
    Alphabet,
    CapExceededError,
    Pattern,
    Sft,
    WindowConfig,
    WindowLanguage,
    compatible,
    disjoint_union,
    enumerate_window,
    full_shift,
    iota,
    is_locally_admissible,
    restrict_language,
    translate_pattern,
    window_j,
)
from .graphs import (
    RauzyGraph,
    check_conditions,
    find_condition_witnesses,
    graph_of_window,
    is_deterministic,
    is_graph_morphism,
    is_minimal,
    letter_flow_graph,
    morphism_edge_map,
    pattern_graph,
    rose,
    three_star,
    two_cycle,
    validate,
    xg_sft,
)
from .selectors import (
    EdgeSelector,
    MinimalityCertificate,
    MinimalityCounterexample,
    certify_minimality,
    check_cycle,
    extend_t1,
    find_cycle,
    least_selector,
    sofic_witness,
    synthesize_recurrent,
    validate_recurrent,
    x_t_window,
    z0_window,
)
from .measured import MeasuredRauzyGraph, integer_solution, validate_balance
from .actions import (
    FiniteAction,
    build_finite_action,
    fiber_product,
    make_transitive,
    orbits,
    periodic_window,
    realize_minimal_neighborhood,
)
from .special import chi_window, return_set, special_symbol_sft, x0_window

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
