"""Consecutive order-isomorphic pattern matching.

Four engines find the positions where a pattern of distinct integers is
order-isomorphic to a contiguous text window: a naive reference scan, a
failure-link automaton, a fully expanded interval-transition automaton
(stored in O(m) as the failure links plus one dropped target per state),
and an average-case sublinear backward-window engine.  A fifth searches
many patterns at once.  All searches report instrumentation counters
alongside their occurrence lists.
"""

from .core import (DuplicateValue, EmptyInput, InputError, Occurrence,
                   Pattern, PatternLongerThanText, SearchStats,
                   naive_search, rank_normalize, rep_table, validate_seq)
from .mp_automaton import MpAutomaton, build_mp, mp_search
from .forward_automaton import ForwardAutomaton, build_forward, forward_search
from .multi_ac import AcAutomaton, ac_search, build_ac, make_pattern_set
from .sublinear import build_factor_tree, choose_b, sublinear_search

__all__ = [
    "AcAutomaton", "DuplicateValue", "EmptyInput", "ForwardAutomaton",
    "InputError", "MpAutomaton", "Occurrence", "Pattern",
    "PatternLongerThanText", "SearchStats", "ac_search", "build_ac",
    "build_factor_tree", "build_forward", "build_mp", "choose_b",
    "forward_search", "make_pattern_set", "mp_search", "naive_search",
    "rank_normalize", "rep_table", "sublinear_search", "validate_seq",
]
