"""WMM-D: data dependencies via clocks, and the machine chosen per test.

Tests that read stamps build the timestamped machine directly
(`oracle.timestamped`), since `build_model("wmm-d", ...)` of a test whose load
addresses are all constant is WMM's machine with no clocks.
"""

import pytest
from hypothesis import given, settings

from i2e_litmus.explorer import replay
from i2e_litmus.litmus import parse
from i2e_litmus.models import RuleInstance, build_model
from i2e_litmus.models.wmm import mem_get, mem_set
from i2e_litmus.models.wmm_d import TimestampedWmmDModel, WmmDModel, load_value_timestamp
from oracle import (check_invariants, every_step, explore_audited, explore_complete,
                    timestamped, unreduced)
from test_stale_liveness import small_programs


def reg_projection(outcomes, *keys):
    return {tuple(o.reg(t, r) for t, r in keys) for o in outcomes}


def reg_ts(model, state, proc, name):
    from i2e_litmus.isa import reg_get
    return reg_get(state.procs[proc].regs, name, (0, 0))


class TestLoadValueTimestamp:
    def test_all_zero(self):
        assert load_value_timestamp(0, 0, 0) == 0

    def test_address_operand_dominates(self):
        assert load_value_timestamp(2, 0, 0) == 2

    def test_plain_max(self):
        assert load_value_timestamp(0, 5, 3) == 5


class TestInitialState:
    def test_memory_cell_shape(self):
        model = timestamped(parse("""
i2e-litmus v1
init:
  a = 0
thread P1:
  r1 = Ld a
check allowed: r1 = 0
"""))
        state = model.initial_state()
        assert mem_get(state.m, 0, None) == (0, None, 0, 0)
        assert state.gts == 0
        assert state.procs[0].rts == 0


class TestDequeue:
    THREE = """
i2e-litmus v1
init:
  a = 0
thread P1:
  St a 1
thread P2:
  St a 2
thread P3:
  r1 = Ld a
check allowed: r1 = 0
"""

    def test_clock_and_cell_updates(self):
        model = every_step(timestamped(parse(self.THREE)))
        state = model.apply(model.initial_state(), RuleInstance("WMM-D-St", 0))
        assert state.procs[0].sb == ((0, 1, 0),)
        state = model.apply(state, RuleInstance("WMM-D-DeqSb", 0, (0,)))
        assert state.gts == 1
        assert mem_get(state.m, 0, None) == (1, 0, 0, 1)

    def test_stale_interval_is_writer_relative(self):
        # P1 and P2 never load a, so only the unreduced machine keeps their
        # stale values; the reduced one keeps P3's alone (checked below)
        model = unreduced(build_model("wmm-d", parse(self.THREE)))
        state = model.initial_state()
        state = model.apply(state, RuleInstance("WMM-D-St", 0))
        state = model.apply(state, RuleInstance("WMM-D-DeqSb", 0, (0,)))
        # both other processors see the initial value with interval [0, 0]
        assert state.procs[1].ib == ((0, 0, 0, 0),)
        assert state.procs[2].ib == ((0, 0, 0, 0),)
        state = model.apply(state, RuleInstance("WMM-D-St", 1))
        assert state.procs[1].ib == ()  # the store purged its own stale values
        state = model.apply(state, RuleInstance("WMM-D-DeqSb", 1, (0,)))
        assert state.gts == 2
        # P1 wrote the overwritten value: visible to it since creation (0);
        # P3 only since it reached memory (1).  Overwrite time is 1 for both.
        assert state.procs[0].ib == ((0, 1, 0, 1),)
        assert state.procs[2].ib == ((0, 0, 0, 0), (0, 1, 1, 1))
        reduced = every_step(timestamped(parse(self.THREE)))
        state = reduced.initial_state()
        for rule in (RuleInstance("WMM-D-St", 0), RuleInstance("WMM-D-DeqSb", 0, (0,)),
                     RuleInstance("WMM-D-St", 1), RuleInstance("WMM-D-DeqSb", 1, (0,))):
            state = reduced.apply(state, rule)
        assert [p.ib for p in state.procs] == [(), (), ((0, 0, 0, 0), (0, 1, 1, 1))]

    def test_reconcile_records_the_clock(self):
        # P2's stale value is dead behind its Reconcile: only the unreduced
        # machine keeps it for the Reconcile to clear
        model = unreduced(build_model("wmm-d", parse("""
i2e-litmus v1
thread P1:
  St a 1
thread P2:
  Reconcile
  r1 = Ld a
check allowed: r1 = 0
""")))
        state = model.initial_state()
        state = model.apply(state, RuleInstance("WMM-D-St", 0))
        state = model.apply(state, RuleInstance("WMM-D-DeqSb", 0, (0,)))
        assert state.procs[1].ib != ()
        state = model.apply(state, RuleInstance("WMM-D-Rec", 1))
        assert state.procs[1].ib == ()
        assert state.procs[1].rts == state.gts == 1


class TestLoadValuePrediction:
    """Walks the two-thread address-passing program where the stale read
    must be rejected: the loaded address carries timestamp 2 while the
    stale value for it died at time 0."""

    def drive_p1(self, model):
        state = model.initial_state()
        state = model.apply(state, RuleInstance("WMM-D-St", 0))
        state = model.apply(state, RuleInstance("WMM-D-DeqSb", 0, (1024,)))
        state = model.apply(state, RuleInstance("WMM-D-Com", 0))
        state = model.apply(state, RuleInstance("WMM-D-St", 0))
        state = model.apply(state, RuleInstance("WMM-D-DeqSb", 0, (0,)))
        return state

    def test_stale_read_blocked_by_address_timestamp(self, corpus_by_name):
        model = build_model("wmm-d", corpus_by_name["load-value-prediction"].test)
        state = self.drive_p1(model)
        # the stale value for `a` (address 1024) has interval [0, 0]
        assert state.procs[1].ib == ((1024, 0, 0, 0), (0, 0, 0, 1))
        state = model.apply(state, RuleInstance("WMM-D-LdMem", 1))
        assert reg_ts(model, state, 1, "r1") == (1024, 2)
        # the dependent load's address operand now has timestamp 2 > 0
        p2_rules = [r for r in model.enabled(state) if r.proc == 1]
        assert p2_rules == [RuleInstance("WMM-D-LdMem", 1)]
        state = model.apply(state, RuleInstance("WMM-D-LdMem", 1))
        assert model.reg_value(state, 1, "r2") == 1  # forced to the fresh value

    def test_outcome_set_excludes_the_prediction(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["load-value-prediction"], "wmm-d").outcomes
        assert (1024, 0) not in reg_projection(outcomes, ("P2", "r1"), ("P2", "r2"))

    def test_wmm_still_allows_it(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["load-value-prediction"], "wmm").outcomes
        assert (1024, 0) in reg_projection(outcomes, ("P2", "r1"), ("P2", "r2"))


class TestMemoryDependencyPrediction:
    def test_literal_address_keeps_timestamp_zero(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["mem-dep-prediction"], "wmm-d").outcomes
        assert (1, 0) in reg_projection(outcomes, ("P2", "r1"), ("P2", "r2"))


class TestEnabled:
    def test_empty_ib_offers_no_stale_reads(self, corpus_by_name):
        model = every_step(build_model("wmm-d", corpus_by_name["load-value-prediction"].test))
        state = model.initial_state()
        p2 = [r for r in model.enabled(state) if r.proc == 1]
        assert p2 == [RuleInstance("WMM-D-LdMem", 1)]


class TestTransitiveDependency:
    def test_chain_is_enforced(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["transitive-dep"], "wmm-d").outcomes
        assert (2048, 2048, 0) not in reg_projection(
            outcomes, ("P2", "r1"), ("P2", "r2"), ("P2", "r3"))

    def test_reading_own_store_from_memory_uses_creation_time(self, corpus_by_name):
        """The modified program: the middle store's value is a literal, so
        reading it back from memory after a Commit yields timestamp 0 (its
        creation time), not the memory-visibility time 3 - that is what
        re-enables the final stale read."""
        model = build_model("wmm-d", corpus_by_name["transitive-dep-mod"].test)
        state = model.initial_state()
        for rule in (RuleInstance("WMM-D-St", 0),
                     RuleInstance("WMM-D-DeqSb", 0, (2048,)),
                     RuleInstance("WMM-D-Com", 0),
                     RuleInstance("WMM-D-St", 0),
                     RuleInstance("WMM-D-DeqSb", 0, (0,)),
                     RuleInstance("WMM-D-LdMem", 1),   # r1 = Ld b -> a
                     RuleInstance("WMM-D-St", 1),      # St c a
                     RuleInstance("WMM-D-DeqSb", 1, (1024,)),
                     RuleInstance("WMM-D-Com", 1)):
            assert rule in model.enabled(state), rule
            state = model.apply(state, rule)
        cell = mem_get(state.m, 1024, None)
        assert cell == (2048, 1, 0, 3)  # value a, writer P2, sts 0, mts 3
        state = model.apply(state, RuleInstance("WMM-D-LdMem", 1))  # r2 = Ld c
        assert reg_ts(model, state, 1, "r2") == (2048, 0)
        # with ats = 0 the stale value for a (interval [0, 0]) is readable
        ldib = [r for r in model.enabled(state) if r.rule == "WMM-D-LdIb"]
        assert ldib == [RuleInstance("WMM-D-LdIb", 1, (0,))]
        state = model.apply(state, ldib[0])
        assert model.reg_value(state, 1, "r3") == 0

    def test_modified_variant_reachable(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["transitive-dep-mod"], "wmm-d").outcomes
        assert (2048, 2048, 0) in reg_projection(
            outcomes, ("P2", "r1"), ("P2", "r2"), ("P2", "r3"))


class TestOtherSpeculation:
    def test_rsw_reachable(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["rsw"], "wmm-d").outcomes
        assert (1, 2048, 0, 0, 0, 0) in reg_projection(
            outcomes, ("P2", "r1"), ("P2", "r2"), ("P2", "r3"),
            ("P2", "r4"), ("P2", "r5"), ("P2", "r6"))

    def test_control_speculation_allowed(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["rmo-speculation"], "wmm-d").outcomes
        assert (1, 1, 0, 0) in reg_projection(
            outcomes, ("P2", "r1"), ("P2", "r2"), ("P2", "r3"), ("P2", "r4"))


class TestAudits:
    def test_structural_invariants_hold(self, corpus_by_name):
        entry = corpus_by_name["transitive-dep"]
        model = build_model("wmm-d", entry.test)

        def audit(state, rule, nxt):
            check_invariants(model, nxt)
            expected = 1 if rule.rule == "WMM-D-DeqSb" else 0
            assert nxt.gts - state.gts == expected

        explore_audited(model, audit=audit)

    @pytest.mark.parametrize("field, message", [
        ("ib", "ib interval inverted"), ("ib-late", "ends after the clock"),
        ("rts", "Reconcile time ahead"), ("memory", "memory stamp later"),
        ("register", "register stamp later"), ("sb", "store stamp later")])
    def test_invariant_checker_rejects_bad_timestamps(self, corpus_by_name, field, message):
        """One timestamp out of place in an otherwise sound state at gts 1:
        an interval [tsL, tsU] inverted or ending after the clock, an rts
        past the clock, or a stamp later than gts + 1."""
        model = timestamped(corpus_by_name["mp-no-reconcile"].test)
        state = model.initial_state()._replace(gts=1)
        check_invariants(model, state)
        p2 = state.procs[1]  # loads f, then a: a stale a stays live
        a = model.addr_map["a"]
        if field in ("ib", "ib-late"):
            p2 = p2._replace(ib=((a, 0, 1, 0) if field == "ib" else (a, 0, 0, 2),))
        elif field == "rts":
            p2 = p2._replace(rts=2)
        elif field == "register":
            p2 = p2._replace(regs=(("r1", (0, 3)),))
        elif field == "sb":
            p2 = p2._replace(sb=((a, 1, 3),))
        else:
            state = state._replace(m=mem_set(state.m, a, (1, 0, 0, 3)))
        state = state._replace(procs=(state.procs[0], p2))
        with pytest.raises(AssertionError, match=message):
            check_invariants(model, state)




# load-value-prediction's address passer, and readers whose second load's
# address reads the register the first one loaded: straight ahead, only
# behind a taken branch over an exit, or behind a backward branch.
PASSER = "thread P1:\n  St a 1\n  Commit\n  St b a\n"
REGISTER_ADDRESSED = {
    "straight": "r1 = Ld b\n  r2 = Ld r1",
    "forward-branch": "r1 = Ld b\n  bnez r1 load\n  exit\n  load:\n  r2 = Ld r1",
    "backward-branch": "top:\n  r2 = Ld r1\n  r1 = Ld b\n  bnez r1 top",
}
# the same shapes with every load address constant; a store's may read a register
CONSTANT_ADDRESSED = {
    "straight": "r1 = Ld b\n  r2 = Ld a",
    "forward-branch": "r1 = Ld b\n  bnez r1 load\n  exit\n  load:\n  r2 = Ld a",
    "computed-store": "r1 = Ld b\n  St r1 1\n  r2 = Ld a",
}
TIMESTAMPED_CORPUS = {"load-value-prediction", "transitive-dep", "transitive-dep-mod",
                      "rsw", "rmo-speculation"}


def reader_test(body: str):
    return parse(f"i2e-litmus v1\n{PASSER}thread P2:\n  {body}\ncheck allowed: m[a] = 1\n")


def assert_machines_agree(test):
    """build_model's machine and the timestamped one reach the same
    outcomes; where they differ, each one's witnesses replay on the other."""
    models = build_model("wmm-d", test), timestamped(test)
    results = [explore_complete(model) for model in models]
    assert results[0].outcomes == results[1].outcomes
    if type(models[0]) is not TimestampedWmmDModel:
        for result, other in zip(results, reversed(models)):
            for outcome in result.outcomes:
                assert replay(other, result.witness(outcome))[1] == outcome


class TestMachineChoice:
    """`build_model("wmm-d", t)` is the timestamped machine exactly when a
    load's address reads a register, and the two machines agree."""

    @pytest.mark.parametrize("reader", sorted(REGISTER_ADDRESSED))
    def test_timestamped_where_a_load_address_reads_a_register(self, reader):
        model = build_model("wmm-d", reader_test(REGISTER_ADDRESSED[reader]))
        assert type(model) is TimestampedWmmDModel

    @pytest.mark.parametrize("reader", sorted(CONSTANT_ADDRESSED))
    def test_clock_free_where_every_load_address_is_constant(self, reader):
        model = build_model("wmm-d", reader_test(CONSTANT_ADDRESSED[reader]))
        assert type(model) is WmmDModel
        state = model.initial_state()
        assert mem_get(state.m, 0, None) == 0 and state.gts == 0  # no clocks

    def test_corpus_choice(self, corpus):
        chosen = {entry.name for entry in corpus
                  if type(build_model("wmm-d", entry.test)) is TimestampedWmmDModel}
        assert chosen == TIMESTAMPED_CORPUS

    def test_machines_agree_on_the_corpus(self, corpus):
        for entry in corpus:
            assert_machines_agree(entry.test)

    @pytest.mark.parametrize("reader", sorted(CONSTANT_ADDRESSED))
    def test_machines_agree_on_constant_readers(self, reader):
        assert_machines_agree(reader_test(CONSTANT_ADDRESSED[reader]))

    @pytest.mark.parametrize("choice, kept", [(0, ((0, 0), (0, 5))), (1, ((0, 5),))])
    def test_clock_free_ldib_keeps_the_value_it_reads(self, choice, kept):
        """As the timestamped LdIb does: it drops only the older values for
        the address, here while a second load of it still follows."""
        model = every_step(build_model("wmm-d", parse(
            "i2e-litmus v1\nthread P1:\n  r1 = Ld a\n  r2 = Ld a\n"
            "thread P2:\n  St a 1\ncheck allowed: r1 = 0\n")))
        state = model.initial_state()
        state = state._replace(procs=(state.procs[0]._replace(ib=((0, 0), (0, 5))),)
                               + state.procs[1:])
        nxt = model.apply(state, RuleInstance("WMM-D-LdIb", 0, (choice,)))
        assert nxt.procs[0].ib == kept
        assert model.reg_value(nxt, 0, "r1") == kept[0][1]


@settings(max_examples=40, deadline=None)
@given(small_programs())
def test_machines_agree_on_generated_programs(text):
    assert_machines_agree(parse(text))
