"""Tagged stores, the copy rule, and the partial coherence order."""

from itertools import permutations, product

import pytest

from i2e_litmus.explorer import explore
from i2e_litmus.litmus import parse
from i2e_litmus.models import RuleInstance, build_model
from i2e_litmus.models.wmm_s import no_cycle
from oracle import age_ordered_key, unreduced, wmm_s_per_holder_expansion


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

T_A, T_B, T_C, T_D = 0, 1, 2, 3


@pytest.fixture()
def copied_state():
    """Stores A-D to one address spread over three buffers.

    P1 holds [A]; P2 holds [D, B, A'] (oldest first); P3 holds [C, B'].
    Primes are copies, so the live order already relates
    D < B < A and C < B.
    """
    model = build_model("wmm-s", parse(THREE_THREADS))
    state = model.initial_state()
    procs = (
        state.procs[0]._replace(sb=((0, 10, T_A),)),
        state.procs[1]._replace(sb=((0, 13, T_D), (0, 11, T_B), (0, 10, T_A))),
        state.procs[2]._replace(sb=((0, 12, T_C), (0, 11, T_B))),
    )
    return model, state._replace(procs=procs)


class TestNoCycle:
    def test_copy_closing_a_cycle_is_rejected(self, copied_state):
        _, state = copied_state
        # A < C in P1 would join C < B < A into a cycle
        assert no_cycle(state, 0, T_C, 0) is False

    def test_copy_into_a_holder_is_rejected(self, copied_state):
        _, state = copied_state
        assert no_cycle(state, 0, T_A, 0) is False
        assert no_cycle(state, 0, T_A, 1) is False

    def test_consistent_copy_is_accepted(self, copied_state):
        _, state = copied_state
        # P3 would become [C, B, A], consistent with P2's order
        assert no_cycle(state, 0, T_A, 2) is True

    def test_copy_into_empty_buffer(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        state = model.initial_state()
        state = model.apply(state, RuleInstance("WMM-S-St", 0))
        assert no_cycle(state, 0, 0, 1) is True
        assert no_cycle(state, 0, 0, 2) is True
        assert no_cycle(state, 0, 0, 0) is False  # its own buffer holds it

    def test_invariant_checker_accepts_the_state(self, copied_state):
        model, state = copied_state
        model.check_invariants(state)


class TestEnabled:
    def test_no_stores_no_copies(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        rules = {r.rule for r in model.enabled(model.initial_state())}
        assert "WMM-S-Copy" not in rules

    def test_wwc_offers_the_enabling_copy(self, corpus_by_name):
        model = build_model("wmm-s", corpus_by_name["wwc"].test)
        state = model.apply(model.initial_state(), RuleInstance("WMM-S-St", 0))
        copies = {r for r in model.enabled(state) if r.rule == "WMM-S-Copy"}
        assert RuleInstance("WMM-S-Copy", 0, (0, 0, 1)) in copies  # into P2

    def test_dequeue_blocked_while_a_copy_is_not_oldest(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        state = model.initial_state()
        procs = (
            state.procs[0]._replace(sb=((0, 1, 0),)),            # the original
            state.procs[1]._replace(sb=((0, 2, 1), (0, 1, 0))),  # copy behind t1
            state.procs[2],
        )
        state = state._replace(procs=procs)
        deqs = {r for r in model.enabled(state) if r.rule == "WMM-S-DeqSb"}
        assert deqs == {RuleInstance("WMM-S-DeqSb", 1, (0,))}
        # after P2's own store commits, the copy becomes oldest everywhere
        state = model.apply(state, RuleInstance("WMM-S-DeqSb", 1, (0,)))
        # offered once for the tag, from its lowest-index holder
        deqs = {r for r in model.enabled(state) if r.rule == "WMM-S-DeqSb"}
        assert deqs == {RuleInstance("WMM-S-DeqSb", 0, (0,))}


class TestRuleActions:
    def test_copy_enqueues_youngest_and_purges_stale(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        state = model.initial_state()
        procs = (
            state.procs[0]._replace(sb=((0, 1, 0),)),
            state.procs[1]._replace(sb=((0, 2, 1),), ib=()),
            state.procs[2]._replace(ib=((0, 7),)),
        )
        state = state._replace(procs=procs)
        after = model.apply(state, RuleInstance("WMM-S-Copy", 0, (0, 0, 2)))
        assert after.procs[2].sb == ((0, 1, 0),)
        assert after.procs[2].ib == ()

    def test_dequeue_removes_every_copy_and_feeds_nonholders(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        state = model.initial_state()
        procs = (
            state.procs[0]._replace(sb=((0, 1, 0),)),
            state.procs[1]._replace(sb=((0, 1, 0), (0, 2, 1))),  # copy + own store
            state.procs[2],
        )
        state = state._replace(procs=procs)
        after = model.apply(state, RuleInstance("WMM-S-DeqSb", 0, (0,)))
        assert after.m == ((0, 1),)
        assert after.procs[0].sb == ()
        assert after.procs[1].sb == ((0, 2, 1),)
        # holders get no stale value; P3 held nothing for the address
        assert after.procs[0].ib == ()
        assert after.procs[1].ib == ()
        assert after.procs[2].ib == ((0, 0),)

    def test_store_allocates_fresh_tags(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        state = model.initial_state()
        state = model.apply(state, RuleInstance("WMM-S-St", 0))
        state = model.apply(state, RuleInstance("WMM-S-St", 1))
        assert state.procs[0].sb == ((0, 1, 0),)
        assert state.procs[1].sb == ((0, 2, 1),)

    def test_hand_built_state_gets_a_tag_no_buffer_holds(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        state = model.initial_state()
        # P1 has executed its store; the state records its tag only in P1's buffer
        state = state._replace(procs=(state.procs[0]._replace(pc=1, sb=((0, 1, 0),)),)
                               + state.procs[1:])
        state = model.apply(state, RuleInstance("WMM-S-St", 1))
        (tag,) = [e[2] for e in state.procs[1].sb]
        assert tag != 0
        offered = set(model.enabled(state))
        assert {r for r in offered if r.rule == "WMM-S-DeqSb"} == {
            RuleInstance("WMM-S-DeqSb", 0, (0,)), RuleInstance("WMM-S-DeqSb", 1, (0,))}
        assert RuleInstance("WMM-S-Copy", 1, (0, tag, 2)) in offered


class TestCanonicalKey:
    @staticmethod
    def with_buffers(model, *sbs):
        state = model.initial_state()
        procs = tuple(proc._replace(sb=sb) for proc, sb in zip(state.procs, sbs))
        return state._replace(procs=procs)

    def test_tag_numbering_is_ignored(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        state = model.initial_state()

        def with_tags(t1, t2):
            procs = (
                state.procs[0]._replace(sb=((0, 1, t1),)),
                state.procs[1]._replace(sb=((0, 2, t2),)),
                state.procs[2],
            )
            return state._replace(procs=procs)

        assert model.canonical_key(with_tags(0, 1)) == model.canonical_key(with_tags(1, 0))
        assert model.canonical_key(with_tags(0, 1)) != model.canonical_key(with_tags(0, 0))

    def test_order_between_addresses_is_ignored(self):
        model = build_model("wmm-s", parse(CROSS_COPIES))
        a, b = model.addr_map["a"], model.addr_map["b"]
        keys = {model.canonical_key(self.with_buffers(
                    model, ((a, 1, 0),), ((b, 1, 1),), sb))
                for sb in (((b, 2, 2), (b, 1, 1), (a, 1, 0)),
                           ((b, 2, 2), (a, 1, 0), (b, 1, 1)),
                           ((a, 1, 0), (b, 2, 2), (b, 1, 1)))}
        assert len(keys) == 1

    def test_order_within_an_address_is_kept(self):
        model = build_model("wmm-s", parse(THREE_THREADS))
        one = self.with_buffers(model, ((0, 1, 0),), ((0, 2, 1),), ((0, 1, 0), (0, 2, 1)))
        two = self.with_buffers(model, ((0, 1, 0),), ((0, 2, 1),), ((0, 2, 1), (0, 1, 0)))
        assert model.canonical_key(one) != model.canonical_key(two)

    def test_tags_are_renamed_after_grouping(self):
        model = build_model("wmm-s", parse(CROSS_COPIES))
        a, b = model.addr_map["a"], model.addr_map["b"]
        # P1's buffer in two cross-address orders and tag numberings; P3
        # holds a copy of P1's store to b in both
        one = self.with_buffers(model, ((b, 1, 7), (a, 1, 5)), (), ((b, 1, 7),))
        two = self.with_buffers(model, ((a, 1, 3), (b, 1, 2)), (), ((b, 1, 2),))
        assert model.canonical_key(one) == model.canonical_key(two)
        # the same buffers, but the third holds a different store to b
        three = self.with_buffers(model, ((a, 1, 3), (b, 1, 2)), (), ((b, 1, 4),))
        assert model.canonical_key(one) != model.canonical_key(three)


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

    @pytest.mark.parametrize("name, states", [("iriw", 784), ("iriw-commit", 788)])
    def test_iriw_state_counts(self, corpus_by_name, explored, name, states):
        """Copy only into a processor whose next instruction loads the
        address: a guard that let more targets through would add states."""
        assert explored(corpus_by_name[name], "wmm-s").stats.visited == states

    def test_wmm_outcomes_subset_of_wmm_s(self, corpus_by_name, explored):
        for name in ("wwc", "iriw", "dekker", "mp"):
            entry = corpus_by_name[name]
            assert explored(entry, "wmm").outcomes <= explored(entry, "wmm-s").outcomes

    def test_invariants_hold_during_wwc_exploration(self, corpus_by_name):
        model = build_model("wmm-s", corpus_by_name["wwc"].test)
        seen_tags: set[int] = set()

        def audit(state, rule, nxt):
            model.check_invariants(nxt)
            for proc in nxt.procs:
                for entry in proc.sb:
                    seen_tags.add(entry[2])

        explore(model, audit=audit)
        assert len(seen_tags) >= 3  # every store execution minted a tag

    def test_dequeued_tag_never_survives(self, corpus_by_name):
        from i2e_litmus import isa
        model = build_model("wmm-s", corpus_by_name["wwc"].test)

        def audit(state, rule, nxt):
            if rule.rule == "WMM-S-DeqSb":
                tag = isa.sb_oldest(state.procs[rule.proc].sb, rule.payload[0])[2]
                assert all(e[2] != tag for proc in nxt.procs for e in proc.sb)

        explore(model, audit=audit)


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
    per-holder reference does, so only the once-per-tag choice differs."""

    @pytest.mark.parametrize("name", ["wwc", "wwc-commit", "multi-holder"])
    def test_same_successors_as_per_holder_enumeration(self, corpus_by_name, name):
        test = parse(MULTI_HOLDER) if name == "multi-holder" else corpus_by_name[name].test
        model = unreduced(build_model("wmm-s", test))
        states = {}
        explore(model, audit=lambda state, rule, nxt:
                states.setdefault(model.canonical_key(state), state))
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


def cross_address_reorderings(sb: tuple) -> set[tuple]:
    """Every order of the buffer that keeps each address's own order."""
    by_address = {a: [e for e in sb if e[0] == a] for a, _, _ in sb}
    return {perm for perm in permutations(sb)
            if all([e for e in perm if e[0] == a] == order
                   for a, order in by_address.items())}


class TestKeyIgnoresOrderBetweenAddresses:
    """Buffers that differ only in the order between addresses get one key,
    and the key merges only bisimilar states: states with one key agree on
    being terminal and on their successors' keys.  Every rule reads a
    buffer per address or through its emptiness, which is why the order
    between addresses may be dropped."""

    @pytest.mark.parametrize("name", ["wwc", "wwc-commit", "cross-copies"])
    def test_reordered_buffers_are_bisimilar(self, corpus_by_name, name):
        test = parse(CROSS_COPIES) if name == "cross-copies" else corpus_by_name[name].test
        model = build_model("wmm-s", test)
        init = model.initial_state()
        states = {age_ordered_key(init): init}
        explore(model, audit=lambda state, rule, nxt:
                states.setdefault(age_ordered_key(nxt), nxt))

        behaviours: dict = {}  # key -> {(terminal, successor keys)}
        reordered = 0
        for state in states.values():
            key = model.canonical_key(state)
            for sbs in product(*(cross_address_reorderings(p.sb) for p in state.procs)):
                variant = state._replace(procs=tuple(
                    p._replace(sb=sb) for p, sb in zip(state.procs, sbs)))
                reordered += variant != state
                assert model.canonical_key(variant) == key
                behaviours.setdefault(key, set()).add((
                    model.is_terminal(variant),
                    frozenset(model.canonical_key(model.apply(variant, r))
                              for r in model.enabled(variant))))
        assert all(len(seen) == 1 for seen in behaviours.values())
        assert reordered > 0  # copies of different addresses met in one buffer
