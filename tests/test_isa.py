"""Decode/execute, against plain and timed registers, and the buffer algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from i2e_litmus import isa, load_corpus
from i2e_litmus.isa import (COMMIT, HALT, RECONCILE, Ld, MachineError, Nm,
                            ProcState, St, compile_thread, decode, execute)
from i2e_litmus.litmus import bind, parse
from i2e_litmus.models import build_model
from oracle import interpreted_decode, sb_oldest
from test_stale_liveness import small_programs

AMAP = {"a": 0, "b": 1024, "c": 2048}


def thread_of(*lines):
    body = "\n".join(f"  {line}" for line in lines)
    text = f"i2e-litmus v1\nthread P1:\n{body}\ncheck allowed: r1 = 0\n"
    return parse(text).threads[0].instrs


def decoded(instrs, proc):
    return decode(compile_thread(instrs, AMAP), proc)[0]


class TestDecode:
    def test_store_literal(self):
        proc = ProcState()
        assert decode(compile_thread(thread_of("St a 1"), AMAP), proc) == (St(0, 1), ())

    def test_address_arithmetic(self):
        instrs = thread_of("r3 = a + r2 - 1")
        proc = ProcState(regs=(("r2", 1),))
        assert decoded(instrs, proc) == Nm("r3", 0, 1)

    def test_past_end_halts(self):
        instrs = thread_of("St a 1")
        assert decoded(instrs, ProcState(pc=1)) is HALT

    def test_exit_halts(self):
        instrs = thread_of("exit", "St a 1")
        assert decoded(instrs, ProcState()) is HALT

    def test_fences(self):
        instrs = thread_of("Commit", "Reconcile")
        assert decode(compile_thread(instrs, AMAP), ProcState()) == (COMMIT, ())
        assert decode(compile_thread(instrs, AMAP), ProcState(pc=1)) == (RECONCILE, ())

    def test_branch_resolves_against_registers(self):
        instrs = thread_of("beqz r1 out", "St a 1", "out:")
        taken = decode(compile_thread(instrs, AMAP), ProcState())
        assert taken == (Nm(None, 0, 2), ("r1",))
        not_taken = decoded(instrs, ProcState(regs=(("r1", 5),)))
        assert not_taken == Nm(None, 0, 1)

    def test_negative_address_rejected(self):
        # compiling succeeds; the error comes when the instruction is reached
        table = compile_thread(thread_of("r1 = Ld a - 1"), AMAP)
        with pytest.raises(MachineError, match="negative"):
            decode(table, ProcState())
        table = compile_thread(thread_of("St (a - 1) 0"), AMAP)
        with pytest.raises(MachineError, match="negative"):
            decode(table, ProcState())

    def test_decode_has_no_side_effects(self):
        instrs = thread_of("r1 = Ld b")
        proc = ProcState(regs=(("r2", 7),))
        first = decode(compile_thread(instrs, AMAP), proc)
        assert decode(compile_thread(instrs, AMAP), proc) == first
        assert proc == ProcState(regs=(("r2", 7),))


class TestCompiledDecode:
    """`compile_thread` decodes a register-free pc once and rejects a
    branch that has no target in its thread."""

    def test_register_free_instructions_decode_once(self):
        table = compile_thread(thread_of("St a 1", "r1 = Ld b", "r2 = Ld r1", "Commit"), AMAP)
        assert table[:2] == ((St(0, 1), ()), (Ld(1024, "r1"), ()))
        assert callable(table[2])  # reads r1
        assert table[3:] == ((COMMIT, ()), (HALT, ()))

    @pytest.mark.parametrize("target_index", [-1, 3])
    def test_branch_without_target_is_rejected(self, target_index):
        # parse resolves every label, so only a hand-built thread can miss one
        test = parse("i2e-litmus v1\nthread P1:\n  beqz r1 out\n  St a 1\n"
                     "  out:\ncheck allowed: m[a] = 0\n")
        thread = test.threads[0]
        branch = thread.instrs[0]._replace(target_index=target_index)
        test = test._replace(threads=(thread._replace(instrs=(branch,) + thread.instrs[1:]),))
        with pytest.raises(MachineError, match="no target"):
            build_model("sc", test)


_VALUES = st.one_of(st.integers(-3000, 3000), st.sampled_from([2**63 - 1, -2**63, 2**64 + 5]))


@st.composite
def register_files(draw, names, timed):
    """Some of the registers, plain or (value, timestamp); the rest missing."""
    regs = {}
    for name in sorted(names):
        if draw(st.booleans()):
            value = draw(_VALUES)
            regs[name] = (value, draw(st.integers(0, 9))) if timed else value
    return tuple(sorted(regs.items()))


def assert_decodes_as_reference(data, thread, amap, timed):
    """At every pc of thread, under a drawn register file."""
    table = compile_thread(thread.instrs, amap, timed)
    names = thread.registers() | {"r99"}
    for pc in range(len(thread.instrs) + 1):
        proc = ProcState(regs=data.draw(register_files(names, timed)), pc=pc)
        try:
            want = interpreted_decode(thread.instrs, proc, amap, timed)
        except MachineError:
            with pytest.raises(MachineError):
                decode(table, proc)
        else:
            assert decode(table, proc) == want


@pytest.mark.parametrize("entry", load_corpus(), ids=lambda entry: entry.name)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), timed=st.booleans())
def test_compiled_decode_matches_reference_on_corpus(entry, data, timed):
    amap = bind(entry.test).amap()
    for thread in entry.test.threads:
        assert_decodes_as_reference(data, thread, amap, timed)


@settings(max_examples=100, deadline=None)
@given(text=small_programs(), data=st.data(), timed=st.booleans())
def test_compiled_decode_matches_reference_on_generated_programs(text, data, timed):
    test = parse(text)
    amap = bind(test).amap()
    for thread in test.threads:
        assert_decodes_as_reference(data, thread, amap, timed)


class TestExecute:
    def test_nm_writes_destination(self):
        proc = execute(ProcState(), Nm("r1", 5, 1))
        assert proc.regs == (("r1", 5),)
        assert proc.pc == 1

    def test_load_needs_result(self):
        proc = execute(ProcState(), Ld(0, "r2"), 42)
        assert proc.regs == (("r2", 42),)
        with pytest.raises(MachineError):
            execute(ProcState(), Ld(0, "r2"))

    def test_branch_jumps_to_thread_end(self):
        instrs = thread_of("beqz r1 out", "St a 1", "out:")
        proc = execute(ProcState(), decoded(instrs, ProcState()))
        assert proc.pc == len(instrs)
        assert decoded(instrs, proc) is HALT

    def test_store_and_fences_only_advance_pc(self):
        for dins in (St(0, 1), COMMIT, RECONCILE):
            proc = execute(ProcState(regs=(("r1", 3),)), dins)
            assert proc == ProcState(regs=(("r1", 3),), pc=1)


def source_ts(proc, sources):
    """The timestamped machine's ats: the latest time among the sources."""
    return max((isa.reg_get(proc.regs, r, (0, 0))[1] for r in sources), default=0)


class TestDecodeTs:
    """Registers hold (value, timestamp) pairs; decode reads the values and
    reports the sources, whose latest timestamp is the instruction's."""

    def test_literals_have_time_zero(self):
        proc = ProcState()
        dins, sources = decode(compile_thread(thread_of("r1 = 7"), AMAP, timed=True), proc)
        assert dins == Nm("r1", 7, 1)
        assert source_ts(proc, sources) == 0

    def test_load_address_operand_time(self):
        instrs = thread_of("r2 = Ld r1")
        proc = ProcState(regs=(("r1", (1024, 2)),))
        dins, sources = decode(compile_thread(instrs, AMAP, timed=True), proc)
        assert dins == Ld(1024, "r2")
        assert source_ts(proc, sources) == 2

    def test_store_creation_time(self):
        instrs = thread_of("St a r1")
        proc = ProcState(regs=(("r1", (9, 3)),))
        dins, sources = decode(compile_thread(instrs, AMAP, timed=True), proc)
        assert dins == St(0, 9)
        assert source_ts(proc, sources) == 3

    def test_max_over_sources(self):
        instrs = thread_of("r3 = r1 + r2")
        proc = ProcState(regs=(("r1", (1, 4)), ("r2", (2, 7))))
        dins, sources = decode(compile_thread(instrs, AMAP, timed=True), proc)
        assert dins == Nm("r3", 3, 1)
        assert source_ts(proc, sources) == 7

    def test_pc_never_counts(self):
        # a branch reads its register, and the jump itself adds no source
        instrs = thread_of("beqz r1 out", "St a 1", "out:")
        proc = ProcState(regs=(("r1", (0, 5)), ("r2", (0, 9))))
        dins, sources = decode(compile_thread(instrs, AMAP, timed=True), proc)
        assert dins == Nm(None, 0, 2)
        assert sources == ("r1",)
        assert source_ts(proc, sources) == 5
        assert decode(compile_thread(thread_of("Commit"), AMAP, timed=True), proc) == (COMMIT, ())

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    def test_ts_is_max_over_exactly_the_registers_read(self, t1, t2, t3):
        # r3 is in the register file but not a source; it must not count.
        instrs = thread_of("St (r1 + c) r2")
        proc = ProcState(regs=(("r1", (0, t1)), ("r2", (5, t2)), ("r3", (0, t3))))
        _, sources = decode(compile_thread(instrs, AMAP, timed=True), proc)
        assert sorted(sources) == ["r1", "r2"]
        assert source_ts(proc, sources) == max(t1, t2)


class TestExecuteTs:
    def test_load_result_carries_timestamp(self):
        proc = execute(ProcState(), Ld(0, "r2"), (1, 4))
        assert proc.regs == (("r2", (1, 4)),)

    def test_fences_leave_timestamps_alone(self):
        proc = ProcState(regs=(("r1", (1, 6)),))
        assert execute(proc, COMMIT).regs == proc.regs
        assert execute(proc, RECONCILE).regs == proc.regs

    def test_nm_carries_source_max(self):
        instrs = thread_of("r3 = r1 + r2")
        proc = ProcState(regs=(("r1", (1, 4)), ("r2", (2, 7))))
        dins, sources = decode(compile_thread(instrs, AMAP, timed=True), proc)
        after = execute(proc, dins, (dins.v, source_ts(proc, sources)))
        assert isa.reg_get(after.regs, "r3", None) == (3, 7)


class TestStoreBuffer:
    def test_per_address_fifo(self):
        sb = isa.sb_enq((), (0, 1))
        sb = isa.sb_enq(sb, (0, 2))
        assert isa.sb_youngest(sb, 0) == (0, 2)
        entry, sb = isa.sb_rm_oldest(sb, 0)
        assert entry == (0, 1)
        assert sb == ((0, 2),)

    def test_insert_keeps_address_order_and_each_address_in_age_order(self):
        sb = ()
        for entry in ((1024, 1), (0, 2), (1024, 3), (0, 4), (2048, 5), (0, 6)):
            sb = isa.sb_insert(sb, entry)
        assert sb == ((0, 2), (0, 4), (0, 6), (1024, 1), (1024, 3), (2048, 5))
        assert isa.sb_youngest(sb, 0) == (0, 6)
        assert isa.sb_rm_oldest(sb, 1024) == ((1024, 1), ((0, 2), (0, 4), (0, 6), (1024, 3),
                                                           (2048, 5)))

    def test_any_addr_on_empty_buffer(self):
        assert isa.sb_addrs(()) == ()

    def test_addrs_ordered_by_oldest(self):
        sb = ((1024, 2), (0, 1), (1024, 9))
        assert isa.sb_addrs(sb) == (1024, 0)

    def test_oldest_and_tags(self):
        sb = ((0, 1, 10), (0, 2, 11), (1024, 3, 12))
        assert sb_oldest(sb, 0) == (0, 1, 10)
        assert sb_oldest(sb, 1024) == (1024, 3, 12)

    def test_contract_violations(self):
        with pytest.raises(MachineError):
            isa.sb_rm_oldest(((0, 1),), 1024)

    def test_exist_and_empty(self):
        assert not isa.sb_exist((), 0)
        sb = ((0, 1),)
        assert isa.sb_exist(sb, 0)
        assert not isa.sb_exist(sb, 1024)


class TestInvalidationBuffer:
    def test_insert_then_remove_address(self):
        ib = isa.ib_insert((), (0, 0))
        ib = isa.ib_insert(ib, (0, 1))
        assert isa.ib_entries(ib, 0) == ((0, 0), (0, 1))
        ib = isa.ib_rm_addr(ib, 0)
        assert isa.ib_entries(ib, 0) == ()

    def test_take_last_empties_the_address(self):
        ib = ((0, 0), (0, 1))
        entry, rest = isa.ib_take(ib, 0, 1)
        assert entry == (0, 1)
        assert isa.ib_entries(rest, 0) == ()

    def test_take_first_keeps_younger(self):
        ib = ((0, 0), (0, 1))
        entry, rest = isa.ib_take(ib, 0, 0)
        assert entry == (0, 0)
        assert isa.ib_entries(rest, 0) == ((0, 1),)

    def test_take_leaves_other_addresses(self):
        ib = ((1024, 7), (0, 0), (1024, 8), (0, 1))
        _, rest = isa.ib_take(ib, 0, 1)
        assert isa.ib_entries(rest, 1024) == ((1024, 7), (1024, 8))

    def test_entries_in_insertion_order(self):
        ib = ((0, 5), (1024, 6), (0, 7))
        assert isa.ib_entries(ib, 0) == ((0, 5), (0, 7))
        assert isa.ib_entries((), 0) == ()

    def test_take_keeping_drops_only_older(self):
        # WMM-D's LdIb: the paper's rmOlder(tsU) is strict, and tsU rises
        # with insertion order
        ib = ((0, 1, 0, 1), (0, 2, 0, 2), (0, 3, 0, 4))
        assert isa.ib_take(ib, 0, 2, keep=True) == ((0, 3, 0, 4), ((0, 3, 0, 4),))
        assert isa.ib_take(ib, 0, 1, keep=True) == ((0, 2, 0, 2), ((0, 2, 0, 2), (0, 3, 0, 4)))

    def test_take_keeping_keeps_other_addresses(self):
        ib = ((1024, 9, 0, 0), (0, 1, 0, 1), (0, 2, 0, 5))
        assert isa.ib_take(ib, 0, 1, keep=True)[1] == ((1024, 9, 0, 0), (0, 2, 0, 5))

    def test_timed_entry_shape(self):
        ib = ((0, 0, 0, 0),)
        (a, v, ts_lower, ts_upper), rest = isa.ib_take(ib, 0, 0)
        assert (v, (ts_lower, ts_upper)) == (0, (0, 0))
        assert rest == ()


# Random interleavings of enq and rmOldest against a per-address queue model.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("enq"), st.integers(0, 2), st.integers(0, 99)),
        st.tuples(st.just("rm"), st.integers(0, 2)),
    ),
    max_size=40,
)


class TestFifoProperty:
    @given(_OPS)
    def test_store_buffer_fifo_per_address(self, ops):
        sb = ()
        queues = {0: [], 1: [], 2: []}
        counter = 0
        for op in ops:
            if op[0] == "enq":
                _, a, v = op
                value = (counter, v)
                counter += 1
                sb = isa.sb_enq(sb, (a,) + value)
                queues[a].append(value)
            else:
                a = op[1]
                if not queues[a]:
                    continue
                entry, sb = isa.sb_rm_oldest(sb, a)
                assert entry[1:] == tuple(queues[a].pop(0))

    @given(_OPS)
    def test_invalidation_buffer_fifo_per_address(self, ops):
        ib = ()
        queues = {0: [], 1: [], 2: []}
        for op in ops:
            if op[0] == "enq":
                _, a, v = op
                ib = isa.ib_insert(ib, (a, v))
                queues[a].append(v)
            else:
                a = op[1]
                assert [e[1] for e in isa.ib_entries(ib, a)] == queues[a]
