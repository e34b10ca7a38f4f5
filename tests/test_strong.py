"""SC, TSO and PSO: deltas on the WMM rule catalog (SC is TSO whose
store drains in the step that executes it), each checked against an
independent oracle that uses nothing from `models/`:
`interleaving_outcomes` for SC and `buffered_outcomes` for TSO and PSO,
on the corpus and on generated programs."""

import pytest
from hypothesis import given, settings, strategies as st

from i2e_litmus.explorer import replay
from i2e_litmus.litmus import bind, parse
from i2e_litmus.models import RuleInstance, build_model
from oracle import (buffered_outcomes, every_step, explore_audited, explore_complete,
                    interleaving_outcomes)
from test_stale_liveness import small_programs


def explore_outcomes(text_or_test, model_id):
    test = parse(text_or_test) if isinstance(text_or_test, str) else text_or_test
    result = explore_complete(build_model(model_id, test))
    assert result.complete
    return result.outcomes


def reg_projection(outcomes, *keys):
    """Project outcome sets onto selected (thread, reg) pairs."""
    return {tuple(o.reg(t, r) for t, r in keys) for o in outcomes}


SINGLE = """
i2e-litmus v1
thread P1:
  St a 1
  r1 = Ld a
check allowed: r1 = 1
"""


class TestSc:
    def test_single_thread_program(self):
        outcomes = explore_outcomes(SINGLE, "sc")
        assert reg_projection(outcomes, ("P1", "r1")) == {(1,)}

    def test_matches_interleaving_oracle(self, corpus):
        for entry in corpus:
            if entry.test.instruction_count() > 8:
                continue
            bound = bind(entry.test)
            engine = explore_complete(build_model("sc", bound)).outcomes
            assert engine == interleaving_outcomes(bound), entry.name

    def test_mp_nofence_unreachable(self, corpus_by_name, explored):
        entry = corpus_by_name["mp-nofence"]
        outcomes = explored(entry, "sc").outcomes
        assert (1, 0) not in reg_projection(outcomes, ("P2", "r1"), ("P2", "r2"))
        # independently: the oracle agrees
        assert (1, 0) not in reg_projection(
            interleaving_outcomes(bind(entry.test)), ("P2", "r1"), ("P2", "r2"))

    def test_dekker_nofence_unreachable(self, corpus_by_name, explored):
        entry = corpus_by_name["dekker-nofence"]
        outcomes = explored(entry, "sc").outcomes
        assert reg_projection(outcomes, ("P1", "r1"), ("P2", "r2")) == {
            (0, 1), (1, 0), (1, 1)}

    def test_fences_are_noops(self):
        text = SINGLE.replace("St a 1", "St a 1\n  Commit\n  Reconcile")
        assert reg_projection(explore_outcomes(text, "sc"), ("P1", "r1")) == {(1,)}


DEKKER_NOFENCE_TSO_WITNESS = (
    RuleInstance("TSO-St", 0), RuleInstance("TSO-St", 1),
    RuleInstance("TSO-Ld", 0), RuleInstance("TSO-Ld", 1),
    RuleInstance("TSO-DeqSb", 0), RuleInstance("TSO-DeqSb", 1),
)


class TestTso:
    def test_dekker_nofence_reachable(self, corpus_by_name, explored):
        entry = corpus_by_name["dekker-nofence"]
        outcomes = explored(entry, "tso").outcomes
        assert (0, 0) in reg_projection(outcomes, ("P1", "r1"), ("P2", "r2"))

    def test_dekker_nofence_hand_witness_replays(self, corpus_by_name):
        # The classic store-buffering interleaving, written out by hand.
        model = build_model("tso", corpus_by_name["dekker-nofence"].test)
        _, outcome = replay(model, DEKKER_NOFENCE_TSO_WITNESS)
        assert outcome.reg("P1", "r1") == 0
        assert outcome.reg("P2", "r2") == 0

    def test_dekker_with_fences_unreachable(self, corpus_by_name, explored):
        entry = corpus_by_name["dekker"]
        outcomes = explored(entry, "tso").outcomes
        assert (0, 0) not in reg_projection(outcomes, ("P1", "r1"), ("P2", "r2"))

    def test_load_reads_own_youngest_store(self):
        # P2 commits a=2 to memory first; P1's load still sees its buffered 1.
        text = """
i2e-litmus v1
thread P1:
  St a 1
  r1 = Ld a
thread P2:
  St a 2
check allowed: r1 = 1
"""
        model = every_step(build_model("tso", parse(text)))
        state = model.initial_state()
        state = model.apply(state, RuleInstance("TSO-St", 1))
        state = model.apply(state, RuleInstance("TSO-DeqSb", 1))
        state = model.apply(state, RuleInstance("TSO-St", 0))
        assert RuleInstance("TSO-Ld", 0) in model.enabled(state)
        state = model.apply(state, RuleInstance("TSO-Ld", 0))
        assert model.reg_value(state, 0, "r1") == 1

    def test_dequeue_drains_the_globally_oldest_store(self):
        text = """
i2e-litmus v1
thread P1:
  St a 1
  St b 2
  St a 3
check allowed: m[a] = 3
"""
        model = build_model("tso", parse(text))
        a, b = model.addr_map["a"], model.addr_map["b"]
        state = model.initial_state()
        for _ in range(3):
            state = model.apply(state, RuleInstance("TSO-St", 0))
        assert model.enabled(state) == [RuleInstance("TSO-DeqSb", 0)]
        state = model.apply(state, RuleInstance("TSO-DeqSb", 0))
        assert model.mem_value(state, "a") == 1
        assert state.procs[0].sb == ((b, 2), (a, 3))

    def test_commit_blocks_until_drained(self):
        text = """
i2e-litmus v1
thread P1:
  St a 1
  Commit
  r1 = Ld a
check allowed: r1 = 1
"""
        model = build_model("tso", parse(text))
        state = model.apply(model.initial_state(), RuleInstance("TSO-St", 0))
        rules = {r.rule for r in model.enabled(state)}
        assert "TSO-Com" not in rules
        assert "TSO-DeqSb" in rules
        state = model.apply(state, RuleInstance("TSO-DeqSb", 0))
        assert "TSO-Com" in {r.rule for r in model.enabled(state)}

    def test_mp_unreachable_even_without_fences(self, corpus_by_name, explored):
        entry = corpus_by_name["mp-nofence"]
        outcomes = explored(entry, "tso").outcomes
        assert (1, 0) not in reg_projection(outcomes, ("P2", "r1"), ("P2", "r2"))

    @pytest.mark.parametrize("name", ["dekker-nofence", "mp-nofence", "corr", "wwc"])
    def test_loads_never_see_past_own_latest_store(self, corpus_by_name, name):
        # whenever the loading processor buffers a store to the address,
        # the load returns that buffer's youngest value, not memory
        from i2e_litmus import isa

        model = build_model("tso", corpus_by_name[name].test)

        def audit(state, rule, nxt):
            if rule.rule != "TSO-Ld":
                return
            dins = isa.decode(model.decoded[rule.proc], state.procs[rule.proc])[0]
            hit = isa.sb_youngest(state.procs[rule.proc].sb, dins.a)
            if hit is not None:
                assert model.reg_value(nxt, rule.proc, dins.dst) == hit[1]

        explore_audited(model, audit=audit)


MP_NOFENCE_PSO_WITNESS = (
    RuleInstance("TSO-St", 0), RuleInstance("TSO-St", 0),
    RuleInstance("PSO-DeqSb", 0, (1024,)),  # the flag leaves the buffer first
    RuleInstance("TSO-Ld", 1), RuleInstance("TSO-Ld", 1),
    RuleInstance("PSO-DeqSb", 0, (0,)),
)


class TestPso:
    def test_mp_nofence_reachable(self, corpus_by_name, explored):
        entry = corpus_by_name["mp-nofence"]
        outcomes = explored(entry, "pso").outcomes
        assert (1, 0) in reg_projection(outcomes, ("P2", "r1"), ("P2", "r2"))

    def test_mp_nofence_hand_witness_replays(self, corpus_by_name):
        model = build_model("pso", corpus_by_name["mp-nofence"].test)
        _, outcome = replay(model, MP_NOFENCE_PSO_WITNESS)
        assert outcome.reg("P2", "r1") == 1
        assert outcome.reg("P2", "r2") == 0

    def test_commit_between_stores_restores_order(self, corpus_by_name, explored):
        entry = corpus_by_name["mp"]
        outcomes = explored(entry, "pso").outcomes
        assert (1, 0) not in reg_projection(outcomes, ("P2", "r1"), ("P2", "r2"))

    def test_dequeues_enumerate_addresses(self):
        text = """
i2e-litmus v1
thread P1:
  St a 1
  St b 2
check allowed: m[a] = 1
"""
        test = parse(text)
        pso = build_model("pso", test)
        state = pso.apply(pso.initial_state(), RuleInstance("TSO-St", 0))
        state = pso.apply(state, RuleInstance("TSO-St", 0))
        deqs = {r for r in pso.enabled(state) if r.rule == "PSO-DeqSb"}
        assert deqs == {RuleInstance("PSO-DeqSb", 0, (0,)),
                        RuleInstance("PSO-DeqSb", 0, (1024,))}
        tso = build_model("tso", test)
        state = tso.apply(tso.initial_state(), RuleInstance("TSO-St", 0))
        state = tso.apply(state, RuleInstance("TSO-St", 0))
        deqs = [r for r in tso.enabled(state) if r.rule == "TSO-DeqSb"]
        assert deqs == [RuleInstance("TSO-DeqSb", 0)]

    def test_same_address_stores_commit_in_order(self):
        text = """
i2e-litmus v1
thread P1:
  St a 1
  St a 2
check allowed: m[a] = 2
"""
        outcomes = explore_outcomes(text, "pso")
        assert {o.loc("a") for o in outcomes} == {2}


@settings(max_examples=100, deadline=None)
@given(small_programs(), st.sampled_from(["sc", "tso", "pso"]))
def test_generated_programs_match_buffered_oracle(text, model_id):
    """`sc` against the interleaving oracle, `tso` and `pso` against the
    buffered one."""
    bound = bind(parse(text))
    result = explore_complete(build_model(model_id, bound))
    assert result.complete
    if model_id == "sc":
        assert result.outcomes == interleaving_outcomes(bound)
    else:
        assert result.outcomes == buffered_outcomes(bound, per_address=model_id == "pso")
