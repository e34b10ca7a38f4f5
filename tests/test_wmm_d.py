"""The timestamped machine: data dependencies via clocks."""

import pytest

from i2e_litmus.explorer import explore
from i2e_litmus.litmus import parse
from i2e_litmus.models import RuleInstance, build_model
from i2e_litmus.models.base import mem_get
from i2e_litmus.models.wmm import ANY_ADDRESS
from i2e_litmus.models.wmm_d import load_value_timestamp
from oracle import every_step, unreduced


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
        model = build_model("wmm-d", parse("""
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
        model = every_step(build_model("wmm-d", parse(self.THREE)))
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
        reduced = every_step(build_model("wmm-d", parse(self.THREE)))
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
            model.check_invariants(nxt)
            expected = 1 if rule.rule == "WMM-D-DeqSb" else 0
            assert nxt.gts - state.gts == expected

        explore(model, audit=audit)


# load-value-prediction's address passer, and readers whose load of the
# passed address reads a register: straight ahead, only through a taken
# branch over an exit, or only through a backward branch.
PASSER = "thread P1:\n  St a 1\n  Commit\n  St b a\n"
READERS = {  # body, pcs from which the register-addressed load may follow, the rest
    "straight": ("r1 = Ld b\n  r2 = Ld r1", (0, 1), (2,)),
    "forward-branch": ("r1 = Ld b\n  bnez r1 load\n  exit\n  load:\n  r2 = Ld r1",
                       (0, 1, 3), (2, 4)),
    "backward-branch": ("top:\n  r2 = Ld r1\n  r1 = Ld b\n  bnez r1 top", (0, 1, 2), (3,)),
}


def reader_model(reader: str, reader_first: bool):
    threads = [PASSER, f"thread P2:\n  {READERS[reader][0]}\n"]
    if reader_first:
        threads.reverse()
    return build_model("wmm-d", parse(
        "i2e-litmus v1\n" + "".join(threads) + "check allowed: m[a] = 1\n"))


def clock_variants(model, reader: int, pc: int):
    """Two states with the reader at pc that differ only in clocks: the
    interval of a stale value for b, its register's stamp, rts and gts."""
    b = model.addr_map["b"]
    state = model.initial_state()
    variants = []
    for t in (1, 2):
        procs = list(state.procs)
        procs[reader] = procs[reader]._replace(
            pc=pc, regs=(("r1", (0, t)),), ib=((b, 0, 0, t),), rts=t)
        variants.append(state._replace(procs=tuple(procs), gts=t))
    return variants


@pytest.mark.parametrize("reader_first", [False, True])
@pytest.mark.parametrize("reader", sorted(READERS))
class TestClockFreeKey:
    """The key keeps every clock while any thread may still reach a load
    whose address reads a register, and drops them all once none can.
    Outcome checks alone do not pin this down: with a key that always
    drops the clocks, every outcome test in the suite still passes."""

    def test_clocks_kept_while_a_register_addressed_load_may_follow(
            self, reader, reader_first):
        model = reader_model(reader, reader_first)
        for pc in READERS[reader][1]:
            one, two = clock_variants(model, 0 if reader_first else 1, pc)
            assert model.canonical_key(one) != model.canonical_key(two), pc

    def test_clocks_dropped_once_none_can(self, reader, reader_first):
        model = reader_model(reader, reader_first)
        for pc in READERS[reader][2]:
            one, two = clock_variants(model, 0 if reader_first else 1, pc)
            assert model.canonical_key(one) == model.canonical_key(two), pc


@pytest.mark.parametrize("name", ["mp", "iriw", "load-value-prediction", "rsw",
                                  "forward-branch"])
def test_states_with_one_key_are_bisimilar(corpus_by_name, name):
    """Every reachable state, keyed with its clocks, against the library's
    key: states that share a key agree on being terminal, their outcome,
    their rule instances and each instance's successor key."""
    test = (reader_model(name, False).bound.test if name in READERS
            else corpus_by_name[name].test)
    model = build_model("wmm-d", test)
    timed = build_model("wmm-d", test)
    timed.load_live = tuple((ANY_ADDRESS,) * (len(instrs) + 1) for instrs in timed.programs)
    init = timed.initial_state()
    states = {init: None}
    explore(timed, audit=lambda state, rule, nxt: states.setdefault(nxt))
    behaviours: dict = {}
    for state in states:
        rules = tuple(model.enabled(state))
        terminal = model.is_terminal(state)
        behaviours.setdefault(model.canonical_key(state), set()).add((
            terminal, model.outcome(state) if terminal else None, rules,
            tuple(model.canonical_key(model.apply(state, r)) for r in rules)))
    assert all(len(seen) == 1 for seen in behaviours.values())
    if name not in ("load-value-prediction", "rsw"):  # nothing merges in these two
        assert len(behaviours) < len(states)
