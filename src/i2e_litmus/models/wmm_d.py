"""WMM-D: the WMM rules plus a timestamp calculus for data dependencies.

A global clock `gts` ticks once per memory write.  Every value carries
the time it was created: register values are (value, ts) pairs, store
buffer entries carry the store's creation time, and each memory
location holds ⟨v, writer, sts, mts⟩ - the writing processor, the
store's creation time, and the time the value became visible in memory
(one past the write).  Stale ib entries carry the interval [tsL, tsU]
during which this processor could have observed the value.

A load's result timestamp is max(ats, rts, vts): the address operand's
timestamp, the processor's last Reconcile time, and the moment the
value became visible to this processor (creation time when reading
one's own store, memory time otherwise).  Reading a stale value is
allowed only if that result timestamp cannot exceed the time tsU at
which the value was overwritten; Reconcile clears the ib and records
rts = gts, so checking ats <= tsU suffices.

Everything else is WMM's rule catalog, with rules named WMM-D-* and
registers decoded as (value, ts) pairs.  The timestamp hooks it
overrides stamp results (`_nm_value` with ats, `_load_sb` with the
entry's sts, `_load_mem` with sts or mts by writer); offer a stale
value only when ats <= tsU, stamp it with tsL and consume it with
`ib_rm_older`, which keeps the entry read (`_stale_loads`); stamp a
buffered store (`_store_entry`); and write the memory cell, tick `gts`
and hand out [tsL, tsU] stale entries (`_write_memory`).
WMM's Reconcile already sets rts = gts.  The stale-value liveness
reduction (`wmm.liveness`) applies unchanged: timestamps matter
only when a stale value is read, and a dead one never is.

Once no thread can reach a load whose address reads a register
(`load_live`, `wmm.liveness` without kills, is ANY_ADDRESS at no
thread's pc), the state key drops every clock: memory's writer, sts
and mts, register and entry stamps, rts and gts.  Sound because (1)
the only guard reading a timestamp is `_stale_loads`' ats <= tsU, and
ats = 0 at a constant address;
(2) `_stale_loads`' `ib_rm_older` reads only the order of tsU among one
address's ib entries, which is insertion order (gts ticks on every
write, entries are appended); (3) writer only picks a timestamp; (4) a
later pc reaches no more pcs, so such a pc never becomes ANY_ADDRESS
again.  Equal keys give the same rule instances, the same clock-free
successors and outcomes, so witnesses still replay.
"""

from __future__ import annotations

from functools import cached_property

from .. import isa
from .base import MachineState, mem_get, mem_set
from .wmm import ANY_ADDRESS, WmmModel, liveness

_INIT_CELL = (0, None, 0, 0)  # value, writer, creation time, memory time


def load_value_timestamp(ats: int, rts: int, vts: int) -> int:
    """When a load's result becomes derivable: the latest of its inputs."""
    return max(ats, rts, vts)


def _ats(proc: isa.ProcState, sources: tuple) -> int:
    """The latest timestamp among the registers an instruction read."""
    return max(isa.reg_get(proc.regs, r, (0, 0))[1] for r in sources) if sources else 0


class WmmDModel(WmmModel):
    model_id = "wmm-d"
    timed = True

    NM_RULE = "WMM-D-Nm"
    LDSB_RULE = "WMM-D-LdSb"
    LDMEM_RULE = "WMM-D-LdMem"
    LDIB_RULE = "WMM-D-LdIb"
    ST_RULE = "WMM-D-St"
    COM_RULE = "WMM-D-Com"
    REC_RULE = "WMM-D-Rec"
    DEQ_RULE = "WMM-D-DeqSb"

    def __init__(self, bound):
        super().__init__(bound)
        # canonical_key's memos: memory, and each thread's ProcStates
        self._plain_m, self._plain_procs = {}, tuple({} for _ in self.programs)

    @cached_property
    def load_live(self) -> tuple:
        """load_live[i][pc]: addresses thread i may still load at all."""
        return tuple(liveness(instrs, self.addr_map, purges_kill=False)
                     for instrs in self.programs)

    def _initial_cell(self, value: int):
        return (value, None, 0, 0)

    def reg_value(self, state: MachineState, i: int, name: str) -> int:
        return isa.reg_get(state.procs[i].regs, name, (0, 0))[0]

    def mem_value(self, state: MachineState, name: str) -> int:
        return mem_get(state.m, self.addr_map[name], _INIT_CELL)[0]

    def _nm_value(self, proc: isa.ProcState, sources: tuple, dins: isa.Nm):
        return dins.v, _ats(proc, sources)

    def _load_sb(self, proc: isa.ProcState, sources: tuple, a: int):
        _, v, sts = isa.sb_youngest(proc.sb, a)
        return v, load_value_timestamp(_ats(proc, sources), proc.rts, sts)

    def _load_mem(self, i: int, proc: isa.ProcState, sources: tuple, cell):
        v, writer, sts, mts = cell
        vts = sts if writer == i else mts
        return v, load_value_timestamp(_ats(proc, sources), proc.rts, vts)

    def _stale_loads(self, proc: isa.ProcState, sources: tuple, a: int):
        ats = _ats(proc, sources)
        for k, (_, v, ts_lower, ts_upper) in enumerate(isa.ib_entries(proc.ib, a)):
            if ats <= ts_upper:  # stale-timing: ats must not pass tsU
                # rmOlder is strict, so the entry read here survives: it may
                # be read again by a later load from the same store.
                yield (k, (v, load_value_timestamp(ats, proc.rts, ts_lower)),
                       isa.ib_rm_older(proc.ib, a, ts_upper))

    def _store_entry(self, i: int, proc: isa.ProcState, sources: tuple, dins: isa.St) -> tuple:
        return dins.a, dins.v, _ats(proc, sources)

    def _write_memory(self, state: MachineState, i: int, entry: tuple) -> tuple:
        a, v, sts = entry
        old_v, old_writer, old_sts, old_mts = mem_get(state.m, a, _INIT_CELL)
        m = mem_set(state.m, a, (v, i, sts, state.gts + 1))
        # The old value was visible to j since it hit memory, unless j
        # wrote it, in which case since its creation; it dies at gts.
        stale = tuple((a, old_v, old_sts if j == old_writer else old_mts, state.gts)
                      for j in range(self.nprocs))
        return m, state.gts + 1, stale

    def canonical_key(self, state: MachineState):
        """The state, or without its clocks once no thread can reach a
        register-addressed load (see the module docstring)."""
        procs = []
        # a thread's memo holds only procs at pcs past its register-addressed loads
        for memo, live, proc in zip(self._plain_procs, self.load_live, state.procs):
            plain = memo.get(proc)
            if plain is None:
                if live[proc.pc] is ANY_ADDRESS:
                    return state
                plain = memo[proc] = (tuple([(r, v[0]) for r, v in proc.regs]), proc.pc,
                                      proc.sb and tuple([e[:2] for e in proc.sb]),
                                      proc.ib and tuple([e[:2] for e in proc.ib]))
            procs.append(plain)
        m = self._plain_m.get(state.m)
        if m is None:
            m = self._plain_m[state.m] = tuple([(a, cell[0]) for a, cell in state.m])
        return m, tuple(procs)

    def check_invariants(self, state: MachineState) -> None:
        super().check_invariants(state)
        bound = state.gts + 1
        for _, (_, _, sts, mts) in state.m:
            assert sts <= bound and mts <= bound
        for proc in state.procs:
            assert proc.rts <= state.gts
            for _, (_, ts) in proc.regs:
                assert ts <= bound
            for _, _, sts in proc.sb:
                assert sts <= bound
            for _, _, ts_lower, ts_upper in proc.ib:
                assert ts_lower <= ts_upper, "ib interval inverted"
                assert ts_upper <= state.gts
