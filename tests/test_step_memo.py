"""The per-thread step memo of the WMM catalog (`tso`, `pso`, `wmm`,
`wmm-d`, `wmm-s`).

A processor-local rule's successor is a pure function of its ProcState
and at most one global value, so `expand` memoizes it per thread (see
`models/wmm.py`).  Every check here compares a memoized expansion with
the unmemoized reference `oracle.cold_expansion`, or makes sure
`oracle.unreduced` still yields the paper's machine once a model has
filled its memo from the reduced liveness tables.
"""

import pytest

from i2e_litmus.explorer import explore
from i2e_litmus.models import build_model
from oracle import cold_expansion, unreduced


@pytest.mark.parametrize("model_id", ["tso", "pso", "wmm", "wmm-d", "wmm-s"])
def test_memoized_expansion_equals_cold_one(corpus, model_id):
    """Every state an exploration reaches, expanded from the memo it left
    filled and then with the memo emptied first."""
    for entry in corpus:
        model = build_model(model_id, entry.test)
        states = {model.initial_state(): None}
        explore(model, audit=lambda state, rule, nxt: states.setdefault(nxt))
        warm = [list(model.expand(state)) for state in states]
        for state, pairs in zip(states, warm):
            assert pairs == cold_expansion(model, state), (entry.name, state)


@pytest.mark.parametrize("model_id", ["wmm", "wmm-d", "wmm-s"])
@pytest.mark.parametrize("name", ["mp", "transitive-dep"])
def test_unreduced_after_exploring(corpus_by_name, name, model_id):
    """A model that has explored, then turned into the unreduced machine,
    searches exactly as a fresh unreduced one."""
    test = corpus_by_name[name].test
    fresh = explore(unreduced(build_model(model_id, test)))
    model = build_model(model_id, test)
    reduced = explore(model)
    again = explore(unreduced(model))
    assert reduced.stats.visited < fresh.stats.visited
    assert again.outcomes == fresh.outcomes
    assert ((again.stats.visited, again.stats.edges, again.stats.dedup_hits)
            == (fresh.stats.visited, fresh.stats.edges, fresh.stats.dedup_hits))
