"""Consecutive order-isomorphic pattern matching.

Four engines find the positions where a pattern of distinct integers is
order-isomorphic to a contiguous text window: a naive reference scan, a
failure-link automaton, a fully expanded interval-transition automaton
(stored in O(m) as the failure links plus one dropped target per state),
and an average-case sublinear backward-window engine.  A fifth searches
many patterns at once.  The engines report instrumentation counters
alongside their occurrence lists; the naive oracle returns the list alone.

Each exported name resolves on first use (PEP 562): ``import opmatch``
loads no engine module, and a name's home module is imported when the
name is first read.  The engine modules resolve as attributes the same
way, so ``opmatch.sublinear.search_or_fallback`` works after a plain
``import opmatch``.
"""

import importlib

# every exported name and the module it lives in
_HOMES = {
    "DuplicateValue": "core", "EmptyInput": "core", "InputError": "core",
    "Occurrence": "core", "Pattern": "core", "PatternLongerThanText": "core",
    "SearchStats": "core", "naive_search": "core", "rank_normalize": "core",
    "rep_table": "core", "validate_seq": "core",
    "MpAutomaton": "mp_automaton", "build_mp": "mp_automaton",
    "mp_search": "mp_automaton",
    "ForwardAutomaton": "forward_automaton",
    "build_forward": "forward_automaton", "forward_search": "forward_automaton",
    "AcAutomaton": "multi_ac", "ac_search": "multi_ac", "build_ac": "multi_ac",
    "make_pattern_set": "multi_ac",
    "build_factor_tree": "sublinear", "choose_b": "sublinear",
    "sublinear_search": "sublinear",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # a home module not imported yet: callers read, say,
    # ``opmatch.sublinear.search_or_fallback`` after a plain ``import opmatch``
    if name in _HOMES.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
