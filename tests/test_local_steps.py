"""Processor-local steps fired alone: the one-step persistent set of `wmm.py`.

Where some processor's next step is Nm, St, Commit with an empty
buffer, or Reconcile, `expand` offers only the first such processor's
step, on every machine, the timestamped WMM-D one included
(`oracle.TIMESTAMPED`).  Every check here compares the reduced machine
with `oracle.every_step`, the same model with that reduction switched
off.
"""

import pytest
from hypothesis import given, settings, strategies as st

from i2e_litmus.explorer import ExploreLimits, check, explore, replay
from i2e_litmus.litmus import parse
from i2e_litmus.models import MODEL_IDS, RuleInstance, build_model
from oracle import TIMESTAMPED, build, every_step, explore_audited, explore_complete
from test_stale_liveness import small_programs

# P1 loads (never local), P2 stores and P3 assigns (both local)
LOAD_STORE_ASSIGN = """
i2e-litmus v1
thread P1:
  r1 = Ld a
thread P2:
  St a 1
thread P3:
  r2 = 1
check allowed: r1 = 0
"""

# P1 waits in Commit for its buffered store; P2's Commit finds its buffer empty
TWO_COMMITS = """
i2e-litmus v1
thread P1:
  St a 1
  Commit
thread P2:
  Commit
  r1 = Ld a
check allowed: r1 = 0
"""

# once P1 has stored, both threads are about to load
TWO_LOADS = """
i2e-litmus v1
thread P1:
  St a 1
  r2 = Ld b
thread P2:
  r1 = Ld a
check allowed: r1 = 0
"""

# P1 loads; P2 and P3 reconcile (local on every machine)
LOAD_RECONCILE_RECONCILE = """
i2e-litmus v1
thread P1:
  r1 = Ld a
thread P2:
  Reconcile
  r2 = Ld a
thread P3:
  Reconcile
check allowed: r1 = 0
"""

# P2 reconciles, then loads a; P1's store to a waits in its buffer
RECONCILE_BESIDE_STORE = """
i2e-litmus v1
thread P1:
  St a 1
thread P2:
  Reconcile
  r1 = Ld a
check allowed: r1 = 0
"""


def both(model_id, text):
    """The reduced model of a test, and the same model with every step
    (`oracle.build`: model_id may be TIMESTAMPED)."""
    test = parse(text)
    return build(model_id, test), every_step(build(model_id, test))


class TestExpand:
    @pytest.mark.parametrize("model_id", ["tso", "pso", "wmm", "wmm-d", "wmm-s"])
    def test_offers_only_the_lowest_index_local_step(self, model_id):
        model, full = both(model_id, LOAD_STORE_ASSIGN)
        state = model.initial_state()
        offered = list(model.expand(state))
        assert [rule for rule, _ in offered] == [RuleInstance(model.ST_RULE, 1)]
        assert offered[0] in list(full.expand(state))  # the same successor
        assert {r.proc for r in full.enabled(state)} == {0, 1, 2}

    @pytest.mark.parametrize("model_id", MODEL_IDS + (TIMESTAMPED,))
    def test_offers_only_the_lowest_index_reconcile(self, model_id):
        model, full = both(model_id, LOAD_RECONCILE_RECONCILE)
        state = model.initial_state()
        offered = list(model.expand(state))
        assert [rule for rule, _ in offered] == [RuleInstance(model.REC_RULE, 1)]
        assert offered[0] in list(full.expand(state))  # the same successor
        assert {r.proc for r in full.enabled(state)} == {0, 1, 2}

    @pytest.mark.parametrize("model_id", ["tso", "pso", "wmm", "wmm-d", "wmm-s", TIMESTAMPED])
    def test_an_eager_reconcile_keeps_every_stale_value(self, model_id):
        """The simulation of the `wmm.py` docstring: Reconcile, then the
        other processor's DeqSb, leaves the reconciling processor's ib a
        supersequence of the one the other order leaves, and nothing else
        differs, the timestamped machine's clock, cells and stamps
        included."""
        model, full = both(model_id, RECONCILE_BESIDE_STORE)
        state = full.apply(full.initial_state(), RuleInstance(model.ST_RULE, 0))
        rec = RuleInstance(model.REC_RULE, 1)
        deq, = (r for r in full.enabled(state) if r.rule == model.DEQ_RULE)
        assert model.enabled(state) == [rec]
        assert full.enabled(state) == [rec, deq]
        eager = full.apply(full.apply(state, rec), deq)
        late = full.apply(full.apply(state, deq), rec)
        p2, q2 = eager.procs[1], late.procs[1]
        assert eager._replace(procs=()) == late._replace(procs=())
        assert eager.procs[0] == late.procs[0]
        assert p2._replace(ib=()) == q2._replace(ib=())
        rest = iter(p2.ib)
        assert all(entry in rest for entry in q2.ib)  # a subsequence
        # P2 loads a next: after Reconcile a is live, and DeqSb offers it a's 0
        offered = 1 if model_id in ("wmm", "wmm-d", "wmm-s", TIMESTAMPED) else 0
        assert (len(p2.ib), len(q2.ib)) == (offered, 0)

    def test_sc_never_fires_its_fused_store_alone(self):
        # SC-St also writes memory, so only P3's Nm is local
        model, full = both("sc", LOAD_STORE_ASSIGN)
        state = model.initial_state()
        assert model.enabled(state) == [RuleInstance(model.NM_RULE, 2)]
        assert {r.rule for r in full.enabled(state)} == {"SC-Ld", "SC-St", "SC-Nm"}

    @pytest.mark.parametrize("model_id", MODEL_IDS)
    def test_a_waiting_commit_is_not_local(self, model_id):
        model, full = both(model_id, TWO_COMMITS)
        state = full.apply(full.initial_state(), RuleInstance(model.ST_RULE, 0))
        if model_id == "sc":  # the store has reached memory: P1's Commit is local
            assert model.enabled(state) == [RuleInstance(model.COM_RULE, 0)]
            return
        # P1's Commit waits for its buffer to drain; P2's finds its own empty
        assert model.enabled(state) == [RuleInstance(model.COM_RULE, 1)]
        assert RuleInstance(model.COM_RULE, 0) not in full.enabled(state)
        assert any(r.rule == model.DEQ_RULE and r.proc == 0 for r in full.enabled(state))

    @pytest.mark.parametrize("model_id", MODEL_IDS)
    def test_without_a_local_step_every_step_is_offered(self, model_id):
        model, full = both(model_id, TWO_LOADS)
        state = full.apply(full.initial_state(), RuleInstance(model.ST_RULE, 0))
        assert list(model.expand(state)) == list(full.expand(state))


@pytest.mark.parametrize("model_id", MODEL_IDS)
@pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
def test_corpus_matches_every_step_machine(corpus, explored, model_id, order):
    """Same outcomes, completeness and no deadlock as the every-step
    machine, in no more states; each reduced witness replays on it."""
    seed = 7 if order == "random" else None
    for entry in corpus:
        reduced = explored(entry, model_id, order=order, seed=seed)
        full_model = every_step(build_model(model_id, entry.test))
        full = explore_complete(full_model, order=order, seed=seed)
        assert reduced.outcomes == full.outcomes, entry.name
        assert reduced.complete and full.complete, entry.name
        assert reduced.deadlocked == full.deadlocked == 0, entry.name
        assert reduced.stats.visited <= full.stats.visited, entry.name
        for outcome in reduced.outcomes:
            assert replay(full_model, reduced.witness(outcome))[1] == outcome, entry.name


# P1's load may read P2's store once P1's own store has drained
OWN_STORE_OVERTAKEN = """
i2e-litmus v1
thread P1:
  St a 1
  r1 = Ld a
thread P2:
  St a 2
check allowed: r1 = 2
"""


def assert_matches_every_step_machine(test, model_id):
    reduced = explore_complete(build_model(model_id, test))
    full = explore_complete(every_step(build_model(model_id, test)))
    assert reduced.outcomes == full.outcomes
    assert reduced.complete and full.complete
    assert reduced.stats.visited <= full.stats.visited
    return reduced


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_a_load_from_the_buffer_is_not_local(model_id):
    """A load that bypasses from the buffer reads no memory, but its
    processor's DeqSb can turn it into one that does."""
    reduced = assert_matches_every_step_machine(parse(OWN_STORE_OVERTAKEN), model_id)
    assert any(o.reg("P1", "r1") == 2 for o in reduced.outcomes)


@settings(max_examples=40, deadline=None)
@given(small_programs(), st.sampled_from(MODEL_IDS))
def test_generated_programs_match_every_step_machine(text, model_id):
    assert_matches_every_step_machine(parse(text), model_id)


def test_sc_stores_are_never_reduced(corpus):
    """Wherever SC offers a store, it offers every step the every-step
    machine offers."""
    stores = 0
    for entry in corpus:
        # the audit re-expands through a second instance: model's own expand
        # is audited for the search, so calling it here would recurse
        model, plain, full = (build_model("sc", entry.test), build_model("sc", entry.test),
                              every_step(build_model("sc", entry.test)))

        def audit(state, rule, nxt):
            nonlocal stores
            offered = list(plain.expand(state))
            if any(r.rule == model.ST_RULE for r, _ in offered):
                stores += 1
                assert offered == list(full.expand(state)), entry.name

        explore_audited(model, audit=audit)
    assert stores > 0


# P1 spins through local steps only; P2 is an ordinary thread
SPIN = """
i2e-litmus v1
thread P1:
  spin:
  {body}
thread P2:
  St a 1
  r1 = Ld a
check allowed: r1 = 1
check forbidden: r1 = 2
"""

SPINS = {
    # the branch returns to the same state: the search closes at once
    "branch-to-itself": "beqz r9 spin",
    # a counter makes every turn a new state: the budget ends the search
    "counting": "r9 = r9 + 1\n  bnez r9 spin",
}


@pytest.mark.parametrize("name", sorted(SPINS))
def test_spinning_thread_ends_under_a_budget_with_no_false_verdict(name):
    """P1 halts in no run, so no run reaches a terminal state: the reduced
    search ends, as the every-step one does, with no outcome, and gives
    the every-step machine's verdicts, inconclusive where a budget ran out."""
    test = parse(SPIN.format(body=SPINS[name]))
    limits = ExploreLimits(max_states=2_000, timeout=30.0)
    reduced = check(test, "wmm", limits=limits)
    full = explore(every_step(build_model("wmm", test)), limits)
    assert reduced.result.outcomes == full.outcomes == frozenset()
    assert reduced.result.complete == full.complete == (name == "branch-to-itself")
    assert reduced.result.deadlocked == 0
    if full.complete:  # no terminal state: the allowed outcome is unreachable
        assert [v.passed for v in reduced.verdicts] == [False, True]
    else:
        assert all(v.inconclusive and v.passed is None for v in reduced.verdicts)
