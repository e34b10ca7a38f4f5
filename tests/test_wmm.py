"""The eight-rule machine with store and invalidation buffers."""

import pytest

from i2e_litmus.explorer import explore
from i2e_litmus.litmus import parse
from i2e_litmus.models import RuleInstance, build_model
from oracle import every_step


def reg_projection(outcomes, *keys):
    return {tuple(o.reg(t, r) for t, r in keys) for o in outcomes}


LD_TEST = """
i2e-litmus v1
thread P1:
  r1 = Ld a
thread P2:
  St a 1
check allowed: r1 = 0
"""

# Both threads load b last, so a stale value for b stays live.
PURGE_TEST = """
i2e-litmus v1
thread P1:
  r1 = Ld a
  r2 = Ld b
thread P2:
  St a 1
  r3 = Ld b
check allowed: r1 = 0
"""


def load_rules(model, state):
    return [r for r in model.enabled(state)
            if r.rule in ("WMM-LdSb", "WMM-LdMem", "WMM-LdIb") and r.proc == 0]


class TestEnabled:
    def test_buffered_store_forces_bypass(self):
        model = every_step(build_model("wmm", parse(LD_TEST)))
        state = model.initial_state()
        p1 = state.procs[0]._replace(sb=((0, 7),))
        state = state._replace(procs=(p1,) + state.procs[1:])
        assert load_rules(model, state) == [RuleInstance("WMM-LdSb", 0)]

    def test_memory_and_stale_choices_enumerated(self):
        model = every_step(build_model("wmm", parse(LD_TEST)))
        state = model.initial_state()
        p1 = state.procs[0]._replace(ib=((0, 5),))
        state = state._replace(procs=(p1,) + state.procs[1:])
        assert load_rules(model, state) == [
            RuleInstance("WMM-LdMem", 0), RuleInstance("WMM-LdIb", 0, (0,))]

    @pytest.mark.parametrize("program, ib", [
        (LD_TEST.replace("r1 = Ld a", "r1 = Ld a\n  r2 = Ld a"), ((0, 0), (0, 5), (0, 0))),
        (LD_TEST, ((0, 0), (0, 5), (0, 5))),
    ], ids=["address-live", "address-dead"])
    def test_every_stale_value_is_a_choice(self, program, ib):
        # even a choice whose successor LdMem or an earlier choice also gives
        model = every_step(build_model("wmm", parse(program)))
        state = model.initial_state()
        state = state._replace(procs=(state.procs[0]._replace(ib=ib),) + state.procs[1:])
        assert load_rules(model, state) == [RuleInstance("WMM-LdMem", 0)] + [
            RuleInstance("WMM-LdIb", 0, (k,)) for k in range(3)]
        live = len(model.programs[0]) > 1
        for k, (_, v) in enumerate(ib):
            after = model.apply(state, RuleInstance("WMM-LdIb", 0, (k,)))
            assert model.reg_value(after, 0, "r1") == v
            # the younger values stay while a later load may read them
            assert after.procs[0].ib == (ib[k + 1:] if live else ())

    def test_commit_gated_on_empty_buffer(self):
        text = """
i2e-litmus v1
thread P1:
  St a 1
  Commit
check allowed: m[a] = 1
"""
        model = build_model("wmm", parse(text))
        state = model.apply(model.initial_state(), RuleInstance("WMM-St", 0))
        assert "WMM-Com" not in {r.rule for r in model.enabled(state)}
        state = model.apply(state, RuleInstance("WMM-DeqSb", 0, (0,)))
        assert "WMM-Com" in {r.rule for r in model.enabled(state)}

    def test_dequeue_per_buffered_address(self):
        text = """
i2e-litmus v1
thread P1:
  St a 1
  St b 1
check allowed: m[a] = 1
"""
        model = build_model("wmm", parse(text))
        state = model.apply(model.initial_state(), RuleInstance("WMM-St", 0))
        state = model.apply(state, RuleInstance("WMM-St", 0))
        deqs = {r for r in model.enabled(state) if r.rule == "WMM-DeqSb"}
        assert deqs == {RuleInstance("WMM-DeqSb", 0, (0,)),
                        RuleInstance("WMM-DeqSb", 0, (1024,))}


class TestRuleActions:
    @pytest.fixture()
    def model(self):
        return every_step(build_model("wmm", parse(LD_TEST)))

    def test_dequeue_feeds_other_invalidation_buffers(self, model):
        state = model.initial_state()
        p2 = state.procs[1]._replace(sb=((0, 1),))
        state = state._replace(procs=(state.procs[0], p2))
        after = model.apply(state, RuleInstance("WMM-DeqSb", 1, (0,)))
        assert after.m == ((0, 1),)
        assert after.procs[1].sb == ()
        assert after.procs[1].ib == ()     # never the committing processor
        assert after.procs[0].ib == ((0, 0),)  # the overwritten value, stale

    def test_dequeue_skips_buffers_holding_the_address(self, model):
        state = model.initial_state()
        p1 = state.procs[0]._replace(sb=((0, 9),))
        p2 = state.procs[1]._replace(sb=((0, 1),))
        state = state._replace(procs=(p1, p2))
        after = model.apply(state, RuleInstance("WMM-DeqSb", 1, (0,)))
        assert after.procs[0].ib == ()  # p1 buffers a store to this address

    def test_store_purges_own_stale_values(self):
        model = build_model("wmm", parse(PURGE_TEST))
        state = model.initial_state()
        p2 = state.procs[1]._replace(ib=((0, 0), (1024, 3)))
        state = state._replace(procs=(state.procs[0], p2))
        after = model.apply(state, RuleInstance("WMM-St", 1))
        assert after.procs[1].sb == ((0, 1),)
        assert after.procs[1].ib == ((1024, 3),)

    def test_memory_read_purges_the_address(self):
        model = every_step(build_model("wmm", parse(PURGE_TEST)))
        state = model.initial_state()
        p1 = state.procs[0]._replace(ib=((0, 0), (1024, 3)))
        state = state._replace(procs=(p1, state.procs[1]))
        after = model.apply(state, RuleInstance("WMM-LdMem", 0))
        assert after.procs[0].ib == ((1024, 3),)
        assert model.reg_value(after, 0, "r1") == 0

    def test_reconcile_clears_everything_stale(self):
        text = """
i2e-litmus v1
thread P1:
  Reconcile
  r1 = Ld a
check allowed: r1 = 0
"""
        model = build_model("wmm", parse(text))
        state = model.initial_state()
        p1 = state.procs[0]._replace(ib=((0, 0), (1024, 3)))
        state = state._replace(procs=(p1,))
        after = model.apply(state, RuleInstance("WMM-Rec", 0))
        assert after.procs[0].ib == ()

    def test_stale_read_consumes_older_entries(self, model):
        state = model.initial_state()
        p1 = state.procs[0]._replace(ib=((0, 0), (0, 2)))
        state = state._replace(procs=(p1, state.procs[1]))
        after = model.apply(state, RuleInstance("WMM-LdIb", 0, (1,)))
        assert model.reg_value(after, 0, "r1") == 2
        assert after.procs[0].ib == ()

    def test_applying_rules_checks_invariants(self, model, corpus_by_name, explored):
        # the sb/ib exclusion holds across a whole exploration
        entry = corpus_by_name["mem-dep-prediction"]
        model = build_model("wmm", entry.test)
        explore(model, audit=lambda s, r, n: model.check_invariants(n))


class TestVerdicts:
    def test_mp_with_fences_forbidden(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["mp"], "wmm").outcomes
        assert (1, 0) not in reg_projection(outcomes, ("P2", "r1"), ("P2", "r2"))

    def test_mp_without_reconcile_reads_stale(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["mp-no-reconcile"], "wmm").outcomes
        assert (1, 0) in reg_projection(outcomes, ("P2", "r1"), ("P2", "r2"))

    def test_corr_forbidden(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["corr"], "wmm").outcomes
        assert (1, 0) not in reg_projection(outcomes, ("P1", "r1"), ("P1", "r2"))

    def test_thin_air_forbidden(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["thin-air"], "wmm").outcomes
        assert (42, 42) not in reg_projection(outcomes, ("P1", "r1"), ("P2", "r2"))

    def test_dekker_fence_removal_matrix(self, corpus_by_name, explored):
        assert (0, 0) not in reg_projection(
            explored(corpus_by_name["dekker"], "wmm").outcomes,
            ("P1", "r1"), ("P2", "r2"))
        for variant in ("dekker-no-commit-p1", "dekker-no-reconcile-p1",
                        "dekker-no-commit-p2", "dekker-no-reconcile-p2"):
            outcomes = explored(corpus_by_name[variant], "wmm").outcomes
            assert (0, 0) in reg_projection(outcomes, ("P1", "r1"), ("P2", "r2")), variant
