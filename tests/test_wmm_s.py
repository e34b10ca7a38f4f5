"""Tagged stores, the copy rule (fused with the load that bypasses from
the copy), and the partial coherence order."""

from itertools import permutations, product

import pytest

from i2e_litmus import isa
from i2e_litmus.explorer import ExploreLimits
from i2e_litmus.litmus import parse
from i2e_litmus.models import RuleInstance, WmmSModel, build_model
from oracle import (address_ordered, check_invariants, every_step, explore_audited,
                    explore_complete, no_cycle, paper_copy, tag_lists, unreduced, sb_oldest, wmm_s_per_holder_expansion)
from test_stale_liveness import assert_same_as_unreduced


def reg_projection(outcomes, *keys):
    return {tuple(o.reg(t, r) for t, r in keys) for o in outcomes}


# P1's store to a and P2's store to b can both be copied into P3's
# buffer, which also holds P3's own store to b, in any order between a
# and b.
CROSS_COPIES = """
i2e-litmus v1
init:
  a = 0
  b = 0
thread P1:
  St a 1
thread P2:
  St b 1
thread P3:
  St b 2
  r1 = Ld a
  r2 = Ld b
check allowed: r1 = 0
"""

THREE_THREADS = """
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

# a tag names its store, (thread, pc, k): here each thread's store at pc 0
P1_STORE, P2_STORE, P3_STORE = (0, 0, 0), (1, 0, 0), (2, 0, 0)
T_A, T_B, T_C, T_D = P1_STORE, (1, 1, 0), P3_STORE, P2_STORE


@pytest.fixture()
def copied_state():
    """Stores A-D to one address spread over three buffers.

    P1 holds [A]; P2 holds [D, B, A'] (oldest first); P3 holds [C, B'].
    Primes are copies, so the live order already relates
    D < B < A and C < B.  P1 stored A, P2 stored D and B, P3 stored C.
    """
    model = build_model("wmm-s", parse(THREE_THREADS))
    state = model.initial_state()
    procs = (
        state.procs[0]._replace(sb=((0, 10, T_A),)),
        state.procs[1]._replace(sb=((0, 13, T_D), (0, 11, T_B), (0, 10, T_A))),
        state.procs[2]._replace(sb=((0, 12, T_C), (0, 11, T_B))),
    )
    return model, state._replace(procs=procs)


def copy_allowed(state, a, tag, target) -> bool:
    """The library's Copy guard, which walks the order from tag, after
    checking that it agrees with the oracle's whole-graph `no_cycle`."""
    lists = tag_lists(state, a)
    allowed = WmmSModel._copy_keeps_order(lists, tag, target)
    assert allowed == no_cycle(lists, tag, target), (lists, tag, target)
    return allowed


class TestNoCycle:
    def test_copy_closing_a_cycle_is_rejected(self, copied_state):
        _, state = copied_state
        # A < C in P1 would join C < B < A into a cycle
        assert copy_allowed(state, 0, T_C, 0) is False

    def test_copy_into_a_holder_is_rejected(self, copied_state):
        _, state = copied_state
        assert copy_allowed(state, 0, T_A, 0) is False
        assert copy_allowed(state, 0, T_A, 1) is False

    def test_consistent_copy_is_accepted(self, copied_state):
        _, state = copied_state
        # P3 would become [C, B, A], consistent with P2's order
        assert copy_allowed(state, 0, T_A, 2) is True

    def test_copy_into_empty_buffer(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        state = model.initial_state()
        state = model.apply(state, RuleInstance("WMM-S-St", 0))
        assert copy_allowed(state, 0, P1_STORE, 1) is True
        assert copy_allowed(state, 0, P1_STORE, 2) is True
        assert copy_allowed(state, 0, P1_STORE, 0) is False  # its own buffer holds it

    def test_invariant_checker_accepts_the_state(self, copied_state):
        model, state = copied_state
        check_invariants(model, state)

    @pytest.mark.parametrize("name, cycles", [
        ("wwc", True), ("iriw", False), ("cross-copies", True), ("multi-holder", False)],
        ids=["wwc", "iriw", "cross-copies", "multi-holder"])
    def test_guard_matches_whole_graph_check_on_reached_states(self, corpus_by_name, name,
                                                                cycles):
        """Every (tag, target) of every state the paper's machine reaches,
        each distinct set of tag lists checked once."""
        test = {"cross-copies": CROSS_COPIES, "multi-holder": MULTI_HOLDER}.get(name)
        model = unreduced(build_model("wmm-s", parse(test) if test
                                      else corpus_by_name[name].test))
        checked, verdicts = set(), set()
        for state in reached_states(model):
            for a in {e[0] for proc in state.procs for e in proc.sb}:
                lists = tag_lists(state, a)
                key = tuple(map(tuple, lists))
                if key in checked:
                    continue
                checked.add(key)
                for tag in {tag for order in lists for tag in order}:
                    for j, order in enumerate(lists):
                        verdicts.add((tag in order, copy_allowed(state, a, tag, j)))
        # copies into a holder and copies allowed, and where two stores
        # meet at one address, copies that would close a cycle
        assert verdicts == {(True, False), (False, True)} | ({(False, False)} if cycles else set())


# Each processor stores to a and loads it back, so each may read another's
# store from a copy: r1 = 3 & r2 = 1 & r3 = 2 orders 1 < 3 < 2 < 1.
THREE_WRITERS = """
i2e-litmus v1
thread P1:
  St a 1
  r1 = Ld a
thread P2:
  St a 2
  r2 = Ld a
thread P3:
  St a 3
  r3 = Ld a
check forbidden: r1 = 3 & r2 = 1 & r3 = 2
"""


def one_step_keeps_order(lists, tag, target) -> bool:
    """A Copy guard that looks only at the stores directly behind tag."""
    own = lists[target]
    behind = {order[order.index(tag) + 1] for order in lists if tag in order[:-1]}
    return not own or (tag not in own and behind.isdisjoint(own))


class TestThreeWriters:
    """Copies that chain: once P1 holds [1, 3'] and P2 holds [2, 1'],
    copying 2 into P3, which holds [3], closes the cycle 3 < 2 < 1 < 3
    only through 1, two steps behind 2."""

    def test_matches_unreduced_reference(self):
        test = parse(THREE_WRITERS)
        reduced = {order: explore_complete(build_model("wmm-s", test), order=order)
                   for order in ("bfs", "dfs")}
        assert_same_as_unreduced(test, "wmm-s", reduced, 9_000)  # 8,157 states
        for order, result in reduced.items():
            assert result.deadlocked == 0, order
            assert (3, 1, 2) not in reg_projection(
                result.outcomes, ("P1", "r1"), ("P2", "r2"), ("P3", "r3")), order

    def test_a_reached_state_offers_a_copy_only_the_chain_refuses(self):
        model = build_model("wmm-s", parse(THREE_WRITERS))
        chained = 0
        for state in reached_states(model):
            for j, proc in enumerate(state.procs):
                for a in model._next_load(j, proc):  # the copies offered into j
                    lists = tag_lists(state, a)
                    for tag in {tag for order in lists for tag in order}:
                        if one_step_keeps_order(lists, tag, j):
                            chained += not copy_allowed(state, a, tag, j)
        assert chained


class TestEnabled:
    def test_no_stores_no_copies(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        rules = {r.rule for r in model.enabled(model.initial_state())}
        assert "WMM-S-Copy" not in rules

    def test_wwc_offers_the_enabling_copy(self, corpus_by_name):
        model = build_model("wmm-s", corpus_by_name["wwc"].test)
        state = model.apply(model.initial_state(), RuleInstance("WMM-S-St", 0))
        copies = {r for r in model.enabled(state) if r.rule == "WMM-S-Copy"}
        assert RuleInstance("WMM-S-Copy", 0, (0, P1_STORE, 1)) in copies  # into P2

    def test_dequeue_blocked_while_a_copy_is_not_oldest(self):
        model = every_step(build_model("wmm-s", parse(THREE_THREADS)))
        state = model.initial_state()
        procs = (
            state.procs[0]._replace(sb=((0, 1, P1_STORE),)),  # the original
            # a copy behind P2's own store
            state.procs[1]._replace(sb=((0, 2, P2_STORE), (0, 1, P1_STORE))),
            state.procs[2],
        )
        state = state._replace(procs=procs)
        deqs = {r for r in model.enabled(state) if r.rule == "WMM-S-DeqSb"}
        assert deqs == {RuleInstance("WMM-S-DeqSb", 1, (0,))}
        # after P2's own store commits, the copy becomes oldest everywhere
        state = model.apply(state, RuleInstance("WMM-S-DeqSb", 1, (0,)))
        # offered once for the tag, from its owner, P1
        deqs = {r for r in model.enabled(state) if r.rule == "WMM-S-DeqSb"}
        assert deqs == {RuleInstance("WMM-S-DeqSb", 0, (0,))}


# P3 loads a twice, so a stale value for a stays live past its first load.
LOAD_TWICE = """
i2e-litmus v1
init:
  a = 0
thread P1:
  St a 1
thread P2:
  r0 = Ld b
thread P3:
  r1 = Ld a
  r2 = Ld a
check allowed: r1 = 0
"""


def load_twice_stored(p3):
    """A LOAD_TWICE state in which P1 has stored a = 1, memory still holds
    a = 0, and P3 is p3."""
    model = build_model("wmm-s", parse(LOAD_TWICE))
    state = model.initial_state()
    procs = (state.procs[0]._replace(pc=1, sb=((0, 1, P1_STORE),)), state.procs[1], p3)
    return model, state._replace(procs=procs)


class TestCopyLoad:
    """Copy fires together with the load of the target that bypasses from
    the copy: one rule whose successor is the paper's Copy, then the
    target's LdSb."""

    def test_copy_is_the_youngest_entry_its_load_bypasses_from(self):
        # P3's own older store
        model, state = load_twice_stored(isa.ProcState(sb=((0, 5, P3_STORE),)))
        after = model.apply(state, RuleInstance("WMM-S-Copy", 0, (0, P1_STORE, 2))).procs[2]
        assert after.regs == (("r1", 1),)
        assert after.pc == 1
        assert isa.sb_youngest(after.sb, 0) == (0, 1, P1_STORE)
        assert after.sb == ((0, 5, P3_STORE), (0, 1, P1_STORE))

    def test_offered_only_into_a_processor_about_to_load_the_address(self):
        model, state = load_twice_stored(isa.ProcState())
        targets = {r.payload[2] for r in model.enabled(state) if r.rule == model.COPY_RULE}
        assert targets == {2}  # P2 is about to load b, not a
        state = model.apply(state, RuleInstance("WMM-S-Copy", 0, (0, P1_STORE, 2)))
        # P3 is at its second load of a, but already holds the tag
        assert not any(r.rule == model.COPY_RULE for r in model.enabled(state))

    def test_described_as_the_papers_two_steps(self):
        """The copied store is shown by its origin, thread and pc, and by
        its k when a looped store has several instances buffered."""
        model = build_model("wmm-s", parse(LOAD_TWICE))
        assert (model.describe_rule(RuleInstance("WMM-S-Copy", 0, (0, P1_STORE, 2)))
                == "P1: WMM-S-Copy (a (P1 pc 0) -> P3, then P3 LdSb)")
        assert (model.describe_rule(RuleInstance("WMM-S-Copy", 1, (0, (0, 3, 1), 2)))
                == "P2: WMM-S-Copy (a (P1 pc 3 #1) -> P3, then P3 LdSb)")

    @pytest.mark.parametrize("name", ["wwc", "iriw", "iriw-commit"])
    def test_successor_is_the_papers_copy_then_the_targets_load(self, corpus_by_name, name):
        model = build_model("wmm-s", corpus_by_name[name].test)
        copies = 0

        def audit(state, rule, nxt):
            nonlocal copies
            if rule.rule == model.COPY_RULE:
                copies += 1
                _, tag, j = rule.payload
                (entry,) = [e for e in state.procs[rule.proc].sb if e[2] == tag]
                # the paper's Copy appends; the library keeps j's buffer in address order
                copied = address_ordered(paper_copy(state, entry, j))
                assert nxt == model.apply(copied, RuleInstance(model.LDSB_RULE, j))

        explore_audited(model, audit=audit)
        assert copies > 0


class TestRuleActions:
    def test_copy_enqueues_youngest_and_purges_stale(self):
        model, state = load_twice_stored(isa.ProcState(ib=((0, 7),)))
        after = model.apply(state, RuleInstance("WMM-S-Copy", 0, (0, P1_STORE, 2))).procs[2]
        assert after.regs == (("r1", 1),)  # the copy's value, not memory's 0 or the stale 7
        assert after.ib == ()  # P3 loads a again, so only the copy's purge removes it
        assert after.pc == 1
        assert after.sb == ((0, 1, P1_STORE),)  # the copy stays behind

    def test_dequeue_removes_every_copy_and_feeds_nonholders(self):
        model = every_step(build_model("wmm-s", parse(THREE_THREADS)))
        state = model.initial_state()
        procs = (
            state.procs[0]._replace(sb=((0, 1, P1_STORE),)),
            state.procs[1]._replace(sb=((0, 1, P1_STORE), (0, 2, P2_STORE))),  # copy + own store
            state.procs[2],
        )
        state = state._replace(procs=procs)
        after = model.apply(state, RuleInstance("WMM-S-DeqSb", 0, (0,)))
        assert after.m == ((0, 1),)
        assert after.procs[0].sb == ()
        assert after.procs[1].sb == ((0, 2, P2_STORE),)
        # holders get no stale value; P3 held nothing for the address
        assert after.procs[0].ib == ()
        assert after.procs[1].ib == ()
        assert after.procs[2].ib == ((0, 0),)

    def test_store_allocates_fresh_tags(self):
        """A tag names its store by thread and pc, whichever thread stores first."""
        model = build_model("wmm-s", parse(THREE_THREADS))
        state = model.initial_state()
        state = model.apply(state, RuleInstance("WMM-S-St", 0))
        state = model.apply(state, RuleInstance("WMM-S-St", 1))
        assert state.procs[0].sb == ((0, 1, (0, 0, 0)),)
        assert state.procs[1].sb == ((0, 2, (1, 0, 0)),)

    def test_hand_built_state_gets_a_tag_no_buffer_holds(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        state = model.initial_state()
        # P1 has executed its store; the state records its tag only in P1's buffer
        state = state._replace(procs=(state.procs[0]._replace(pc=1, sb=((0, 1, P1_STORE),)),)
                               + state.procs[1:])
        state = model.apply(state, RuleInstance("WMM-S-St", 1))
        (tag,) = [e[2] for e in state.procs[1].sb]
        assert tag != P1_STORE
        offered = set(model.enabled(state))
        assert {r for r in offered if r.rule == "WMM-S-DeqSb"} == {
            RuleInstance("WMM-S-DeqSb", 0, (0,)), RuleInstance("WMM-S-DeqSb", 1, (0,))}
        assert RuleInstance("WMM-S-Copy", 1, (0, tag, 2)) in offered


class TestVerdicts:
    def test_wwc_split(self, corpus_by_name, explored):
        entry = corpus_by_name["wwc"]
        goal = ((("P2", "r1"), 2), (("P3", "r2"), 1))

        def hit(outcomes):
            return any(o.reg("P2", "r1") == 2 and o.reg("P3", "r2") == 1
                       and o.loc("a") == 2 for o in outcomes)

        assert not hit(explored(entry, "wmm").outcomes)
        assert hit(explored(entry, "wmm-s").outcomes)
        assert not hit(explored(corpus_by_name["wwc-commit"], "wmm-s").outcomes)

    def test_iriw_split(self, corpus_by_name, explored):
        keys = (("P3", "r1"), ("P3", "r2"), ("P4", "r3"), ("P4", "r4"))
        assert (1, 0, 1, 0) not in reg_projection(
            explored(corpus_by_name["iriw"], "wmm").outcomes, *keys)
        assert (1, 0, 1, 0) in reg_projection(
            explored(corpus_by_name["iriw"], "wmm-s").outcomes, *keys)
        assert (1, 0, 1, 0) not in reg_projection(
            explored(corpus_by_name["iriw-commit"], "wmm-s").outcomes, *keys)

    @pytest.mark.parametrize("name, states", [("iriw", 402), ("iriw-commit", 383)],
                             ids=["iriw", "iriw-commit"])
    def test_iriw_state_counts(self, corpus_by_name, explored, name, states):
        """Copy only into a processor whose next instruction loads the
        address, and fused with that load, and each processor-local step
        fired alone: a guard that let more targets through, a copy fired
        apart from its load, or a local step offered beside others, would
        add states."""
        assert explored(corpus_by_name[name], "wmm-s").stats.visited == states

    def test_wmm_outcomes_subset_of_wmm_s(self, corpus_by_name, explored):
        for name in ("wwc", "iriw", "dekker", "mp"):
            entry = corpus_by_name[name]
            assert explored(entry, "wmm").outcomes <= explored(entry, "wmm-s").outcomes

    def test_invariants_hold_during_wwc_exploration(self, corpus_by_name):
        model = build_model("wmm-s", corpus_by_name["wwc"].test)
        seen_tags: set[int] = set()

        def audit(state, rule, nxt):
            check_invariants(model, nxt)
            for proc in nxt.procs:
                for entry in proc.sb:
                    seen_tags.add(entry[2])

        explore_audited(model, audit=audit)
        assert len(seen_tags) >= 3  # every store execution minted a tag

    def test_dequeued_tag_never_survives(self, corpus_by_name):
        model = build_model("wmm-s", corpus_by_name["wwc"].test)

        def audit(state, rule, nxt):
            if rule.rule == "WMM-S-DeqSb":
                tag = sb_oldest(state.procs[rule.proc].sb, rule.payload[0])[2]
                assert all(e[2] != tag for proc in nxt.procs for e in proc.sb)

        explore_audited(model, audit=audit)


# Each of P1's stores can be copied into both other buffers, so a tag
# reaches three holders.
MULTI_HOLDER = """
i2e-litmus v1
init:
  a = 0
  b = 0
thread P1:
  St a 1
  St b 1
thread P2:
  r1 = Ld a
thread P3:
  r2 = Ld b
check allowed: r1 = 0
"""


class TestOncePerTag:
    """On the unreduced machine, whose Copy targets every processor as the
    per-holder reference does, so only firing from the store's owner
    rather than from every holder differs."""

    # each unreduced search's state budget, above its count (2,377, 2,146 and 549)
    MAX_STATES = {"wwc": 2_500, "wwc-commit": 2_500, "multi-holder": 600}

    @pytest.mark.parametrize("name", ["wwc", "wwc-commit", "multi-holder"])
    def test_same_successors_as_per_holder_enumeration(self, corpus_by_name, name):
        test = parse(MULTI_HOLDER) if name == "multi-holder" else corpus_by_name[name].test
        model = unreduced(build_model("wmm-s", test))
        states = {}

        def audit(state, rule, nxt):
            check_invariants(model, nxt)  # the paper's machine mints unique tags too
            states.setdefault(model.canonical_key(state), state)

        assert explore_audited(model, ExploreLimits(max_states=self.MAX_STATES[name]),
                               audit=audit).complete
        dropped = 0
        for state in states.values():
            reduced = {r: model.canonical_key(nxt) for r, nxt in model.expand(state)}
            reference = wmm_s_per_holder_expansion(model, state)
            assert set(reduced.values()) == {model.canonical_key(nxt) for _, nxt in reference}
            # LdMem and LdIb may meet; no two DeqSb or Copy instances do
            background = [key for r, key in reduced.items()
                          if r.rule in (model.DEQ_RULE, model.COPY_RULE)]
            assert len(set(background)) == len(background), "two instances, one successor"
            dropped += len(reference) - len(reduced)
        assert dropped > 0  # some tag really had several holders


# P3 stores a; P1 loads a twice and P2 once.
OWNER_LAST = """
i2e-litmus v1
init:
  a = 0
thread P1:
  r1 = Ld a
  r2 = Ld a
thread P2:
  r3 = Ld a
thread P3:
  St a 1
check allowed: r1 = 0
"""


class TestOwnerFires:
    """DeqSb and Copy fire from the store's owner, tag[0], whichever
    other processors hold a copy."""

    def test_copy_held_by_a_lower_index_processor(self):
        model = build_model("wmm-s", parse(OWNER_LAST))
        state = model.initial_state()
        p1, p2, p3 = state.procs
        # P3 has stored a = 1, and P1 has loaded it through a copy
        state = state._replace(procs=(
            p1._replace(regs=(("r1", 1),), pc=1, sb=((0, 1, P3_STORE),)),
            p2, p3._replace(pc=1, sb=((0, 1, P3_STORE),))))
        check_invariants(model, state)
        background = [r for r in model.enabled(state)
                      if r.rule in (model.DEQ_RULE, model.COPY_RULE)]
        assert background == [RuleInstance(model.DEQ_RULE, 2, (0,)),
                              RuleInstance(model.COPY_RULE, 2, (0, P3_STORE, 1))]
        assert [model.describe_rule(r)[:3] for r in background] == ["P3:", "P3:"]

    @pytest.mark.parametrize("name", ["corpus", "cross-copies", "multi-holder"])
    def test_every_instance_names_the_owner(self, corpus, name):
        fired = {WmmSModel.DEQ_RULE: 0, WmmSModel.COPY_RULE: 0}
        for test in canonical_check_programs(name, corpus):
            model = build_model("wmm-s", test)

            def audit(state, rule, nxt):
                if rule.rule == model.DEQ_RULE:
                    tag = sb_oldest(state.procs[rule.proc].sb, rule.payload[0])[2]
                elif rule.rule == model.COPY_RULE:
                    tag = rule.payload[1]
                else:
                    return
                fired[rule.rule] += 1
                assert tag[0] == rule.proc, (rule, tag)

            explore_audited(model, order="dfs", audit=audit)
        assert all(fired.values())


def cross_address_reorderings(sb: tuple) -> set[tuple]:
    """Every order of the buffer that keeps each address's own order."""
    by_address = {a: [e for e in sb if e[0] == a] for a, _, _ in sb}
    return {perm for perm in permutations(sb)
            if all([e for e in perm if e[0] == a] == order
                   for a, order in by_address.items())}


def reached_states(model) -> list:
    """Every state a complete search of model reaches."""
    states = {model.initial_state(): None}
    assert explore_audited(model, audit=lambda state, rule, nxt: states.setdefault(nxt)).complete
    return list(states)


def count_bisimilar_reorderings(test) -> int:
    """Check that every reordering between addresses of the buffers of
    every state reached in test agrees with the state on being terminal
    and, once its successors are re-sorted, on its successors; return how
    many reorderings differed from their state."""
    model = build_model("wmm-s", test)
    reordered = 0
    for state in reached_states(model):
        successors = set(model.expand(state))
        terminal = model.is_terminal(state)
        for sbs in product(*(cross_address_reorderings(p.sb) for p in state.procs)):
            variant = state._replace(procs=tuple(
                p._replace(sb=sb) for p, sb in zip(state.procs, sbs)))
            if variant == state:
                continue
            reordered += 1
            assert model.is_terminal(variant) == terminal
            assert {(r, address_ordered(nxt))
                    for r, nxt in model.expand(variant)} == successors
    return reordered


def canonical_check_programs(name: str, corpus) -> list:
    if name == "corpus":
        return [entry.test for entry in corpus]
    return [parse({"cross-copies": CROSS_COPIES, "multi-holder": MULTI_HOLDER}[name])]


class TestCanonicalByConstruction:
    """States are built canonical, so the search keys them by themselves:
    each buffer is in address order, no buffer repeats a tag, and each
    tag's owner thread holds it, so a tag names one buffered store.  No
    rule reads the order between addresses, so a state stands for every
    reordering of its buffers between addresses, as the paper's machine
    may hold them: each has the same rule instances, and successors that
    equal the state's own once re-sorted.  The paper's machine, which
    `unreduced` keeps, appends to its buffers, so address order is checked
    here rather than in `check_invariants`, which both machines share."""

    NAMES = ["corpus", "cross-copies", "multi-holder"]

    @pytest.mark.parametrize("name", NAMES)
    def test_reached_states_are_canonical(self, corpus, name):
        mixed = copied = 0
        for test in canonical_check_programs(name, corpus):
            model = build_model("wmm-s", test)
            for state in reached_states(model):
                check_invariants(model, state)  # tags: unique per buffer, held by their owner
                for i, proc in enumerate(state.procs):
                    addresses = [e[0] for e in proc.sb]
                    assert addresses == sorted(addresses), "buffer out of address order"
                    mixed += len(set(addresses)) > 1
                    copied += any(e[2][0] != i for e in proc.sb)
        assert mixed > 0 and copied > 0  # the checks met both

    @pytest.mark.parametrize("sbs, message", [
        ((((0, 1, (0, 0, 0)), (0, 1, (0, 0, 0))), (), ()), "tag repeated"),
        (((), (), ((0, 1, (0, 0, 0)),)), "outlived its owner"),
        ((((0, 1, 0),), ((0, 1, 0),), ()), "no .thread, pc, k. tag"),
        ((((0, 1, (3, 0, 0)),), (), ()), "no .thread, pc, k. tag"),
        # each tag held by its owner, in opposite orders in the two buffers
        ((((0, 1, P1_STORE), (0, 1, P2_STORE)), ((0, 1, P2_STORE), (0, 1, P1_STORE)), ()),
         "coherence cycle"),
    ], ids=["repeated-tag", "copy-without-owner", "integer-tag", "no-such-thread",
            "coherence-cycle"])
    def test_invariant_checker_rejects_unowned_or_repeated_tags(self, sbs, message):
        model = build_model("wmm-s", parse(CROSS_COPIES))
        state = model.initial_state()
        state = state._replace(procs=tuple(
            proc._replace(sb=sb) for proc, sb in zip(state.procs, sbs)))
        with pytest.raises(AssertionError, match=message):
            check_invariants(model, state)

    def test_store_order_does_not_change_tags(self):
        """A tag names its store, not when it was minted: two stores in
        either order reach one state."""
        model = every_step(build_model("wmm-s", parse(THREE_THREADS)))
        init = model.initial_state()
        one, two = (model.apply(model.apply(init, RuleInstance("WMM-S-St", first)),
                                RuleInstance("WMM-S-St", 1 - first))
                    for first in (0, 1))
        assert one == two
        assert model.canonical_key(one) == model.canonical_key(two)

    @pytest.mark.parametrize("name", ["corpus", "multi-holder"])
    def test_reordered_buffers_are_bisimilar(self, corpus, name):
        reordered = sum(count_bisimilar_reorderings(test)
                        for test in canonical_check_programs(name, corpus))
        assert reordered > 0  # stores to different addresses met in one buffer


class TestKeyIgnoresOrderBetweenAddresses:
    """The search keys a state by itself, and its buffers are in address
    order, so every reordering between addresses is one key.  That key
    merges only bisimilar states: each reordering agrees with the state on
    being terminal, and its successors, re-sorted, are the state's own."""

    @pytest.mark.parametrize("name", ["wwc", "wwc-commit", "cross-copies"])
    def test_reordered_buffers_are_bisimilar(self, corpus_by_name, name):
        test = parse(CROSS_COPIES) if name == "cross-copies" else corpus_by_name[name].test
        assert count_bisimilar_reorderings(test) > 0  # copies of different addresses met


# P1 runs one store twice (a = 1, then a = 2), and P2 loads a twice, so
# P1's second instance can be minted while its first is buffered and
# copied into P2: the second one's tag needs k = 1.
LOOPED_STORE = """
i2e-litmus v1
init:
  a = 0
thread P1:
  top:
  St a (r1 + 1)
  r1 = r1 + 1
  r2 = 2 - r1
  bnez r2 top
thread P2:
  r3 = Ld a
  r4 = Ld a
check allowed: r3 = 2 & r4 = 1
"""


class TestLoopedStore:
    def test_second_instance_gets_the_next_free_k(self):
        model = every_step(build_model("wmm-s", parse(LOOPED_STORE)))
        state = model.initial_state()
        first, second = (0, 0, 0), (0, 0, 1)  # P1's store at pc 0, twice
        for rule in (RuleInstance("WMM-S-St", 0),
                     RuleInstance("WMM-S-Copy", 0, (0, first, 1)),
                     RuleInstance("WMM-Nm", 0), RuleInstance("WMM-Nm", 0),
                     RuleInstance("WMM-Nm", 0), RuleInstance("WMM-S-St", 0)):
            state = model.apply(state, rule)
        assert state.procs[0].sb == ((0, 1, first), (0, 2, second))
        assert state.procs[1].sb == ((0, 1, first),)
        check_invariants(model, state)

    def test_k_is_the_smallest_free_one(self):
        """Once an earlier instance has drained, its k is free again."""
        model = build_model("wmm-s", parse(LOOPED_STORE))
        state = model.initial_state()
        p1 = state.procs[0]._replace(regs=(("r1", 1),), sb=((0, 2, (0, 0, 1)),))
        state = model.apply(state._replace(procs=(p1,) + state.procs[1:]),
                            RuleInstance("WMM-S-St", 0))
        assert state.procs[0].sb == ((0, 2, (0, 0, 1)), (0, 2, (0, 0, 0)))

    def test_matches_unreduced_reference(self):
        test = parse(LOOPED_STORE)
        model = build_model("wmm-s", test)
        twice = 0

        def audit(state, rule, nxt):
            nonlocal twice
            check_invariants(model, nxt)  # among others: no buffer repeats a tag
            p1, p2 = ({e[2] for e in proc.sb} for proc in nxt.procs)
            twice += (0, 0, 1) in p1 and (0, 0, 0) in p1 & p2

        reduced = {order: explore_audited(model, order=order, audit=audit)
                   for order in ("bfs", "dfs")}
        # the reference mints its own tags: two instances sharing one would
        # drain the copy of the second with the first, and let P2 read 2, then 1
        assert_same_as_unreduced(test, "wmm-s", reduced, 400)  # 327 states
        assert twice > 0  # the second instance met the first, buffered and copied
