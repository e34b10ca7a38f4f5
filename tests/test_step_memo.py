"""The per-thread step and drain memos of the WMM catalog, which all six
models expand through (`sc`, `tso`, `pso`, `wmm`, `wmm-d`, `wmm-s`).

A processor-local rule's successor is a pure function of its ProcState
and at most one global value, and a buffered processor's side of DeqSb
a pure function of its ProcState, so `expand` memoizes both per thread
(see `models/wmm.py`).  The checks here compare a memoized expansion
with the unmemoized reference `oracle.cold_expansion`, make sure
`oracle.unreduced` still yields the paper's machine once a model has
filled its memos from the reduced liveness tables, and make sure the
memos do not keep their model alive.
"""

import gc
import weakref

import pytest

from i2e_litmus.explorer import ExploreLimits, explore
from i2e_litmus.models import build_model
from oracle import cold_expansion, explore_complete, unreduced


@pytest.mark.parametrize("model_id", ["sc", "tso", "pso", "wmm", "wmm-d", "wmm-s"])
def test_memoized_expansion_equals_cold_one(corpus, model_id):
    """Every state an exploration reaches, expanded from the memos it left
    filled and then with the memos emptied first."""
    for entry in corpus:
        model = build_model(model_id, entry.test)
        states = explore_complete(model).parents
        warm = [list(model.expand(state)) for state in states]
        for state, pairs in zip(states, warm):
            assert pairs == cold_expansion(model, state), (entry.name, state)


@pytest.mark.parametrize("model_id", ["wmm", "wmm-d", "wmm-s"])
@pytest.mark.parametrize("name", ["mp", "transitive-dep"])
def test_unreduced_after_exploring(corpus_by_name, name, model_id):
    """A model that has explored, then turned into the unreduced machine,
    searches exactly as a fresh unreduced one."""
    test = corpus_by_name[name].test
    limits = ExploreLimits(max_states=400)  # the largest is wmm-s transitive-dep, 316
    fresh = explore(unreduced(build_model(model_id, test)), limits)
    model = build_model(model_id, test)
    reduced = explore_complete(model)
    again = explore(unreduced(model), limits)
    assert fresh.complete and again.complete
    assert reduced.stats.visited < fresh.stats.visited
    assert again.outcomes == fresh.outcomes
    assert ((again.stats.visited, again.stats.edges, again.stats.dedup_hits)
            == (fresh.stats.visited, fresh.stats.edges, fresh.stats.dedup_hits))


@pytest.mark.parametrize("model_id", ["sc", "tso", "pso", "wmm", "wmm-d", "wmm-s"])
def test_explored_model_is_freed_without_the_cycle_collector(corpus_by_name, model_id):
    """With the cycle collector off, an explored model dies with its last
    reference, and its exploration left no cyclic garbage behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        model = build_model(model_id, corpus_by_name["iriw"].test)
        explore_complete(model)
        ref = weakref.ref(model)
        del model
        assert ref() is None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
