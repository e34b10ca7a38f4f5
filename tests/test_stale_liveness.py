"""Liveness: which stale values a thread may still load.

The reduced `wmm`/`wmm-d`/`wmm-s` machines never insert a stale value that its
processor cannot load, and drop one once its processor's pc passes the
last load that could read it; `wmm-s` also copies a store only into a
processor whose next instruction loads its address, fused with that
load, and `wmm-d` leaves its clocks out where every load address is
constant.  Every check here compares them with the unreduced reference
in `oracle.unreduced`, which on `wmm-d` is the timestamped machine, and
on `wmm-s` also copies into every processor, with no load fused to the
copy, and keys store buffers in their age order, so the `wmm-d` and
`wmm-s` checks cover every reduction of those models.
"""

import pytest
from hypothesis import given, settings, strategies as st

from i2e_litmus.explorer import ExploreLimits, explore, replay
from i2e_litmus.litmus import parse
from i2e_litmus.models import RuleInstance, build_model
from i2e_litmus.models.wmm import ANY_ADDRESS
from oracle import (TIMESTAMPED, build, check_invariants, every_step, explore_audited,
                    explore_complete, split_copy_loads, unreduced)


def liveness(body: str):
    """The liveness table of a one-thread test, and its address map."""
    model = build_model("wmm", parse(
        f"i2e-litmus v1\nthread P1:\n{body}\ncheck allowed: m[a] = 0\n"))
    return model.stale_live[0], model.addr_map


class TestStaleLiveness:
    def test_reconcile_kills_everything(self):
        live, m = liveness("  r1 = Ld a\n  Reconcile\n  r2 = Ld b")
        assert live == ({m["a"]}, set(), {m["b"]}, set())

    def test_constant_store_kills_its_address(self):
        live, m = liveness("  St a 1\n  r1 = Ld a\n  r2 = Ld b")
        assert live[0] == {m["b"]}
        assert live[1] == {m["a"], m["b"]}

    def test_computed_store_kills_nothing(self):
        live, m = liveness("  r1 = Ld b\n  St r1 1\n  r2 = Ld a")
        assert live[1] == {m["a"]}

    def test_computed_load_address_is_any(self):
        live, m = liveness("  r1 = Ld b\n  r2 = Ld r1\n  Reconcile\n  r3 = Ld a")
        assert live[0] is ANY_ADDRESS and live[1] is ANY_ADDRESS
        assert live[2] == set()  # Reconcile clears even "any"
        assert 12345 in live[0]

    def test_forward_branch_takes_the_union(self):
        live, m = liveness(
            "  r1 = Ld c\n  beqz r1 skip\n  r2 = Ld a\n  exit\n  skip:\n  r3 = Ld b")
        assert live[1] == {m["a"], m["b"]}
        assert live[2] == {m["a"]}
        assert live[4] == {m["b"]}

    def test_backward_branch_reaches_a_fixpoint(self):
        # pc 1 and 2 see the load of a only through the back edge
        live, m = liveness(
            "  top:\n  r1 = Ld a\n  St b 1\n  bnez r1 top\n  Reconcile\n  r2 = Ld c")
        assert live == ({m["a"]}, {m["a"]}, {m["a"]}, set(), {m["c"]}, set())

    def test_exit_and_end_of_program_are_empty(self):
        live, m = liveness("  exit\n  r1 = Ld a")
        assert live == (set(), {m["a"]}, set())


DEAD_AFTER_RECONCILE = """
i2e-litmus v1
thread P1:
  St a 1
thread P2:
  Reconcile
  r1 = Ld a
thread P3:
  r2 = Ld a
check allowed: r1 = 0 & r2 = 0
"""

LOAD_THEN_OTHER = """
i2e-litmus v1
thread P1:
  r1 = Ld a
  r2 = Ld b
thread P2:
  St a 1
check allowed: r1 = 0 & r2 = 0
"""


def stale(model_id, a, v, interval=(0, 0)):
    """An ib entry; `wmm-d` adds the interval [tsL, tsU]."""
    return (a, v) + interval if model_id == "wmm-d" else (a, v)


def machine(model_id: str, text: str):
    """The model of text, `wmm-d` as its timestamped machine, whose ib
    entries carry the intervals that `stale` adds."""
    return build(TIMESTAMPED if model_id == "wmm-d" else model_id, parse(text))


@pytest.mark.parametrize("model_id", ["wmm", "wmm-s", "wmm-d"])
class TestDeadValues:
    def test_dequeue_skips_a_reader_behind_reconcile(self, model_id):
        model = every_step(machine(model_id, DEAD_AFTER_RECONCILE))
        state = model.apply(model.initial_state(), RuleInstance(model.ST_RULE, 0))
        after = model.apply(state, RuleInstance(model.DEQ_RULE, 0, (0,)))
        assert after.procs[1].ib == ()
        assert after.procs[2].ib == (stale(model_id, 0, 0),)
        reference = unreduced(build_model(model_id, parse(DEAD_AFTER_RECONCILE)))
        assert reference.apply(state, RuleInstance(model.DEQ_RULE, 0, (0,))).procs[1].ib \
            == (stale(model_id, 0, 0),)

    def test_invariant_rejects_a_dead_value(self, model_id):
        model = machine(model_id, DEAD_AFTER_RECONCILE)
        state = model.initial_state()
        # P2 reconciles before its load
        p2 = state.procs[1]._replace(ib=(stale(model_id, 0, 0),))
        state = state._replace(procs=(state.procs[0], p2, state.procs[2]))
        with pytest.raises(AssertionError, match="dead stale values"):
            check_invariants(model, state)
        check_invariants(unreduced(build_model(model_id, parse(DEAD_AFTER_RECONCILE))), state)

    def test_invariant_rejects_an_address_both_buffered_and_stale(self, model_id):
        model = machine(model_id, DEAD_AFTER_RECONCILE)
        state = model.initial_state()
        # P3's next load keeps a live, but a pending store to a refuses stale values
        entry = {"wmm": (0, 1), "wmm-d": (0, 1, 0), "wmm-s": (0, 1, (2, 0, 0))}[model_id]
        p3 = state.procs[2]._replace(sb=(entry,), ib=(stale(model_id, 0, 0),))
        state = state._replace(procs=state.procs[:2] + (p3,))
        with pytest.raises(AssertionError, match="share addresses"):
            check_invariants(model, state)

    def test_value_dropped_once_its_last_load_is_passed(self, model_id):
        model = every_step(machine(model_id, LOAD_THEN_OTHER))
        state = model.initial_state()
        older, younger = stale(model_id, 0, 0), stale(model_id, 0, 5, (0, 1))
        state = state._replace(procs=(state.procs[0]._replace(ib=(older, younger)),)
                               + state.procs[1:])
        rule = RuleInstance(model.LDIB_RULE, 0, (0,))
        offered = dict(model.expand(state))
        # P1 passes its last load of a: no successor of that load keeps a value for a
        assert RuleInstance(model.LDMEM_RULE, 0) in offered
        assert all(nxt.procs[0].ib == () for r, nxt in offered.items() if r.proc == 0)
        # so choice 0 reads memory's value and leaves what LdMem leaves; it
        # is offered all the same, as the paper's LdIb reads any stale value
        assert rule in offered
        assert offered[rule].procs[0] == offered[RuleInstance(model.LDMEM_RULE, 0)].procs[0]
        reference = unreduced(build_model(model_id, parse(LOAD_THEN_OTHER)))
        # the paper's rmOlder keeps the value it read
        assert reference.apply(state, rule).procs[0].ib == (older, younger)


def test_apply_refuses_an_instance_expand_does_not_offer():
    """`apply` fires only what `expand` offers: here an LdIb choice past
    the last stale value."""
    model = every_step(build_model("wmm", parse(LOAD_THEN_OTHER)))
    state = model.initial_state()
    state = state._replace(procs=(state.procs[0]._replace(ib=((0, 0), (0, 5))),)
                           + state.procs[1:])
    assert model.apply(state, RuleInstance("WMM-LdIb", 0, (1,))).procs[0].regs == (("r1", 5),)
    with pytest.raises(ValueError, match="not enabled"):
        model.apply(state, RuleInstance("WMM-LdIb", 0, (2,)))


def assert_same_as_unreduced(test, model_id, reduced_results, max_states):
    """Reduced and unreduced agree on outcomes and completeness; every
    reduced witness replays on the reduced machine, and with each `wmm-s`
    Copy split from its load (`split_copy_loads`) on the unreduced one.
    The unreduced search runs once, as its outcome set does not depend on
    the search order, and must complete within max_states: a budget sized
    from its known count, so that a bug that leaves copies behind fails
    at once instead of searching for minutes."""
    reference_model = unreduced(build_model(model_id, test))
    reference = explore(reference_model, ExploreLimits(max_states=max_states))
    assert reference.complete
    for order, reduced in reduced_results.items():
        assert reduced.outcomes == reference.outcomes, order
        assert reduced.complete == reference.complete, order
        assert reduced.stats.visited <= reference.stats.visited, order
        for outcome in reduced.outcomes:
            witness = reduced.witness(outcome)
            assert replay(reduced.model, witness)[1] == outcome
            assert replay(reference_model, split_copy_loads(witness))[1] == outcome
    return reference


# above each model's largest unreduced corpus search, iriw-commit's
# (1,088, 956 and 19,593 states)
CORPUS_MAX_STATES = {"wmm": 1_200, "wmm-d": 1_100, "wmm-s": 20_000}


@pytest.mark.parametrize("model_id", ["wmm", "wmm-s", "wmm-d"])
def test_corpus_matches_unreduced_reference(corpus, explored, model_id):
    for entry in corpus:
        reduced = {order: explored(entry, model_id, order=order) for order in ("bfs", "dfs")}
        reference = assert_same_as_unreduced(entry.test, model_id, reduced,
                                             CORPUS_MAX_STATES[model_id])
        if entry.name == "iriw":
            assert reduced["bfs"].stats.visited < reference.stats.visited


# Message passing whose reader sees the stale a only through a branch:
# r1 = 1 and r2 = 0 needs the value inserted while P2 is at its first load.
BRANCHY = {
    "taken-branch-skips-reconcile": "bnez r1 skip\n  Reconcile\n  skip:\n  r2 = Ld a",
    "fall-through-loads": "beqz r1 skip\n  r2 = Ld a\n  skip:\n  Reconcile",
}


@pytest.mark.parametrize("model_id", ["wmm", "wmm-s", "wmm-d"])
@pytest.mark.parametrize("name", sorted(BRANCHY))
def test_branches_match_unreduced_reference(name, model_id):
    test = parse("i2e-litmus v1\nthread P1:\n  St a 1\n  Commit\n  St b 1\n"
                 f"thread P2:\n  r1 = Ld b\n  {BRANCHY[name]}\n"
                 "check allowed: r1 = 1 & r2 = 0\n")
    reduced = explore_complete(build_model(model_id, test))
    assert any(o.reg("P2", "r1") == 1 and o.reg("P2", "r2") == 0 for o in reduced.outcomes)
    assert_same_as_unreduced(test, model_id, {"bfs": reduced}, 100)  # at most 94


FINISHED_READER = """
i2e-litmus v1
thread P1:
  St a 1
thread P2:
  r1 = Ld a
check allowed: r1 = 0
"""


def copy_targets(model, state):
    return {r.payload[2] for r in model.enabled(state) if r.rule == model.COPY_RULE}


def test_no_copy_into_a_finished_processor():
    test = parse(FINISHED_READER)
    model = build_model("wmm-s", test)
    stored = model.apply(model.initial_state(), RuleInstance(model.ST_RULE, 0))
    assert copy_targets(model, stored) == {1}  # P2 has yet to load a
    finished = model.apply(stored, RuleInstance(model.LDMEM_RULE, 1))
    assert copy_targets(model, finished) == set()
    assert copy_targets(unreduced(build_model("wmm-s", test)), finished) == {1}


# P2 reaches its load of a past an Nm, both fences and a store to a.
LOAD_LAST = """
i2e-litmus v1
thread P1:
  St a 1
thread P2:
  r0 = 1
  Commit
  Reconcile
  St a 2
  r1 = Ld a
check allowed: r1 = 1
"""


def test_copy_only_into_a_processor_whose_next_instruction_loads():
    test = parse(LOAD_LAST)
    model = build_model("wmm-s", test)
    reference = unreduced(build_model("wmm-s", test))
    state = model.apply(model.initial_state(), RuleInstance(model.ST_RULE, 0))
    for rule in (model.NM_RULE, model.COM_RULE, model.REC_RULE, model.ST_RULE):
        assert copy_targets(model, state) == set(), rule
        assert 1 in copy_targets(reference, state), rule  # the paper's Copy
        state = model.apply(state, RuleInstance(rule, 1))
    assert state.procs[1].pc == 4  # at its load of a
    assert copy_targets(model, state) == {1}


def test_copy_only_for_the_decoded_address_of_a_computed_load():
    """P2 loads (r0 + a) with r0 = b: only the store to b is copied in."""
    test = parse("i2e-litmus v1\nthread P1:\n  St a 1\n  St b 1\n"
                 "thread P2:\n  r0 = b\n  r1 = Ld (r0 + a)\ncheck allowed: r1 = 0\n")
    model = build_model("wmm-s", test)
    state = model.initial_state()
    for rule in (RuleInstance(model.ST_RULE, 0), RuleInstance(model.ST_RULE, 0),
                 RuleInstance(model.NM_RULE, 1)):
        state = model.apply(state, rule)
    copies = {r.payload[0] for r in model.enabled(state) if r.rule == model.COPY_RULE}
    assert copies == {model.addr_map["b"]}


# WRC: P3's Reconcile keeps its loads in order, so r1 = 1, r2 = 1, r3 = 0
# needs P1's store copied into P2 before it reaches memory.
WRC = """
i2e-litmus v1
thread P1:
  St a 1
thread P2:
  r1 = Ld a
  St b 1
thread P3:
  r2 = Ld b
  Reconcile
  r3 = Ld a
check allowed: r1 = 1 & r2 = 1 & r3 = 0
"""


def test_wrc_matches_unreduced_reference():
    test = parse(WRC)
    reduced = explore_complete(build_model("wmm-s", test))
    reference = assert_same_as_unreduced(test, "wmm-s", {"bfs": reduced}, 1_000)
    assert reference.stats.visited == 946
    assert reduced.stats.visited == 110

    def wrc(outcomes):
        return any(o.reg("P2", "r1") == 1 and o.reg("P3", "r2") == 1
                   and o.reg("P3", "r3") == 0 for o in outcomes)

    assert wrc(reduced.outcomes)
    for model_id in ("sc", "tso", "pso", "wmm", "wmm-d"):
        assert not wrc(explore_complete(build_model(model_id, test)).outcomes), model_id


# P3 holds the stale a = 0 once P1's store reaches memory, and P2's store
# is then copied into P3 by its first load: the copy purges the stale
# value, so P3's second load cannot read 0 after the first read 2.
COPY_OVER_STALE = """
i2e-litmus v1
thread P1:
  St a 1
thread P2:
  St a 2
thread P3:
  r1 = Ld a
  r2 = Ld a
check allowed: r1 = 2 & r2 = 0
"""


def test_copy_purge_matches_unreduced_reference():
    test = parse(COPY_OVER_STALE)
    model = build_model("wmm-s", test)
    over_stale = 0

    def audit(state, rule, nxt):
        nonlocal over_stale
        if rule.rule == model.COPY_RULE:
            a, _, j = rule.payload
            over_stale += any(e[0] == a for e in state.procs[j].ib)

    reduced = {order: explore_audited(model, order=order, audit=audit)
               for order in ("bfs", "dfs")}
    assert over_stale > 0  # a copy met a live stale value for its address
    assert not any(o.reg("P3", "r1") == 2 and o.reg("P3", "r2") == 0
                   for o in reduced["bfs"].outcomes)
    assert_same_as_unreduced(test, "wmm-s", reduced, 500)  # 412 states


# wwc, whose allowed outcome needs P1's store copied into P2 before it
# reaches memory; P2 reaches its load of a only through a taken branch,
# or loads it through a register-computed address.
COPY_TARGET_LOADS = {
    "taken-branch": "beqz r0 load\n  exit\n  load:\n  r1 = Ld a",
    "computed-address": "r1 = Ld (r0 + a)",
}


@pytest.mark.parametrize("name", sorted(COPY_TARGET_LOADS))
def test_copy_targets_match_unreduced_reference(name):
    test = parse("i2e-litmus v1\ninit:\n  a = 0\n  b = 0\nthread P1:\n  St a 2\n"
                 f"thread P2:\n  {COPY_TARGET_LOADS[name]}\n  St b (r1 - 1)\n"
                 "thread P3:\n  r2 = Ld b\n  St a r2\n"
                 "check allowed: r1 = 2 & r2 = 1 & m[a] = 2\n")
    reduced = explore_complete(build_model("wmm-s", test))
    assert any(o.reg("P2", "r1") == 2 and o.reg("P3", "r2") == 1 and o.loc("a") == 2
               for o in reduced.outcomes)
    assert_same_as_unreduced(test, "wmm-s", {"bfs": reduced}, 2_500)  # at most 2,456


READER = ("ld", "ld", "ld", "st", "Commit", "Reconcile", "branch", "exit")


@st.composite
def small_programs(draw):
    """P1 stores to a and b, optionally with a Commit between (message
    passing), and one or two readers run constant and register-computed
    loads, a store, fences, forward branches and exits; a reader's store
    may pass on a register it loaded.  Or two readers start in the WRC
    shape, whose outcome r(P2) = 1, r(P3, second) = 1, r(P3, first) = 0
    needs a WMM-S copy: P1 only stores to first, P2 loads first and
    stores that register to second, and P3 loads second, reconciles and
    loads first.  Two stores with two readers, three with one, keep every
    search small."""
    first, second = draw(st.permutations("ab"))
    nreaders = draw(st.integers(1, 2))
    wrc = nreaders == 2 and draw(st.booleans())
    writer = [f"St {first} 1"]
    if not wrc:
        writer += ["Commit"] * draw(st.booleans()) + [f"St {second} 2"]
    lines = ["i2e-litmus v1", "thread P1:"] + [f"  {ins}" for ins in writer]
    stores = 1 + nreaders
    regs = []
    for t in range(nreaders):
        lines.append(f"thread P{t + 2}:")
        body, mine = [], []

        def load(addr):
            mine.append(f"r{len(regs) + len(mine) + 1}")
            body.append(f"{mine[-1]} = Ld {addr}")

        if wrc and t == 0:
            load(first)
            body.append(f"St {second} {mine[-1]}")
        elif wrc:
            load(second)
            body.append("Reconcile")
            load(first)
        for _ in range(draw(st.integers(0, 1) if wrc else st.integers(1, 3))):
            addr = draw(st.sampled_from("ab"))
            if mine and draw(st.booleans()):
                addr = f"({draw(st.sampled_from(mine))} + {addr})"
            kind = draw(st.sampled_from(READER))
            if kind == "ld":
                load(addr)
            elif kind == "st" and stores < 3:
                stores += 1
                body.append(f"St {addr} {draw(st.sampled_from(mine + ['1', '2']))}")
            elif kind == "branch" and mine:
                # jump over one or two instructions, or to the end
                body.append((draw(st.sampled_from(mine)), len(body) + draw(st.integers(2, 3))))
            elif kind in ("Commit", "Reconcile", "exit"):
                body.append(kind)
        for pc, ins in enumerate(body + [""]):
            lines.append(f"  L{pc}:")
            if isinstance(ins, tuple):
                lines.append(f"  bnez {ins[0]} L{min(ins[1], len(body))}")
            elif ins:
                lines.append(f"  {ins}")
        regs.extend(mine)
    lines.append("check allowed: " + " & ".join([f"{r} = 0" for r in regs] + ["m[a] = 0"]))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(small_programs(), st.sampled_from(["wmm", "wmm-s", "wmm-d"]))
def test_generated_programs_match_unreduced_reference(text, model_id):
    test = parse(text)
    model = build_model(model_id, test)
    # the largest unreduced search the generator can make is about 5,100
    # states (wmm-s, two readers of three loads each)
    assert_same_as_unreduced(test, model_id, {"bfs": explore_complete(model)}, 10_000)
