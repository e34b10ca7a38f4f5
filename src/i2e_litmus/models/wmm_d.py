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
"""

from __future__ import annotations

from .. import isa
from .base import BaseModel, MachineState, RuleInstance, mem_get, mem_set

_INIT_CELL = (0, None, 0, 0)  # value, writer, creation time, memory time


def load_value_timestamp(ats: int, rts: int, vts: int) -> int:
    """When a load's result becomes derivable: the latest of its inputs."""
    return max(ats, rts, vts)


class WmmDModel(BaseModel):
    model_id = "wmm-d"

    def _initial_cell(self, value: int):
        return (value, None, 0, 0)

    def decode_at(self, state: MachineState, i: int):
        return isa.decode_ts(self.programs[i], state.procs[i], self.addr_map)[0]

    def _decode_ts(self, state: MachineState, i: int):
        return isa.decode_ts(self.programs[i], state.procs[i], self.addr_map)

    def reg_value(self, state: MachineState, i: int, name: str) -> int:
        return isa.reg_get(state.procs[i].regs, name, (0, 0))[0]

    def mem_value(self, state: MachineState, name: str) -> int:
        return mem_get(state.m, self.addr_map[name], _INIT_CELL)[0]

    def enabled(self, state: MachineState) -> list[RuleInstance]:
        out = []
        for i in range(self.nprocs):
            proc = state.procs[i]
            dins, ats = self._decode_ts(state, i)
            if isinstance(dins, isa.Halt):
                pass
            elif isinstance(dins, isa.Nm):
                out.append(RuleInstance("WMM-D-Nm", i))
            elif isinstance(dins, isa.Ld):
                if isa.sb_exist(proc.sb, dins.a):
                    out.append(RuleInstance("WMM-D-LdSb", i))
                else:
                    out.append(RuleInstance("WMM-D-LdMem", i))
                    for k, entry in enumerate(isa.ib_entries(proc.ib, dins.a)):
                        if ats <= entry[3]:  # stale-timing: ats must not pass tsU
                            out.append(RuleInstance("WMM-D-LdIb", i, (k,)))
            elif isinstance(dins, isa.St):
                out.append(RuleInstance("WMM-D-St", i))
            elif isinstance(dins, isa.Commit):
                if isa.sb_empty(proc.sb):
                    out.append(RuleInstance("WMM-D-Com", i))
            else:
                out.append(RuleInstance("WMM-D-Rec", i))
        for i in range(self.nprocs):
            out.extend(RuleInstance("WMM-D-DeqSb", i, (a,))
                       for a in isa.sb_addrs(state.procs[i].sb))
        return out

    def apply(self, state: MachineState, rule: RuleInstance) -> MachineState:
        if rule.rule == "WMM-D-DeqSb":
            return self._apply_dequeue(state, rule)
        i = rule.proc
        proc = state.procs[i]
        dins, ts = self._decode_ts(state, i)
        name = rule.rule
        if name == "WMM-D-LdSb":
            _, v, sts = isa.sb_youngest(proc.sb, dins.a)
            proc = isa.execute_ts(proc, dins, v,
                                  load_value_timestamp(ts, proc.rts, sts))
        elif name == "WMM-D-LdMem":
            v, writer, sts, mts = mem_get(state.m, dins.a, _INIT_CELL)
            vts = sts if writer == i else mts
            proc = isa.execute_ts(proc, dins, v,
                                  load_value_timestamp(ts, proc.rts, vts))
            proc = isa.ProcState(proc.regs, proc.pc, proc.sb,
                                 isa.ib_rm_addr(proc.ib, dins.a), proc.rts)
        elif name == "WMM-D-LdIb":
            entries = isa.ib_entries(proc.ib, dins.a)
            _, v, ts_lower, ts_upper = entries[rule.payload[0]]
            proc = isa.execute_ts(proc, dins, v,
                                  load_value_timestamp(ts, proc.rts, ts_lower))
            # rmOlder is strict, so the entry read here survives: it may
            # be read again by a later load from the same store.
            proc = isa.ProcState(proc.regs, proc.pc, proc.sb,
                                 isa.ib_rm_older(proc.ib, dins.a, ts_upper), proc.rts)
        elif name == "WMM-D-St":
            proc = isa.execute_ts(proc, dins, None, None)
            proc = isa.ProcState(proc.regs, proc.pc,
                                 isa.sb_enq(proc.sb, (dins.a, dins.v, ts)),
                                 isa.ib_rm_addr(proc.ib, dins.a), proc.rts)
        elif name == "WMM-D-Rec":
            proc = isa.execute_ts(proc, dins, None, None)
            proc = isa.ProcState(proc.regs, proc.pc, proc.sb, (), state.gts)
        else:  # WMM-D-Nm / WMM-D-Com
            proc = isa.execute_ts(proc, dins, None,
                                  ts if isinstance(dins, isa.Nm) else None)
        procs = state.procs[:i] + (proc,) + state.procs[i + 1:]
        return MachineState(state.m, procs, state.gts, state.next_tag)

    def _apply_dequeue(self, state: MachineState, rule: RuleInstance) -> MachineState:
        i = rule.proc
        a = rule.payload[0]
        old_v, old_writer, old_sts, old_mts = mem_get(state.m, a, _INIT_CELL)
        ts_upper = state.gts
        (_, v, sts), sb = isa.sb_rm_oldest(state.procs[i].sb, a)
        m = mem_set(state.m, a, (v, i, sts, state.gts + 1))
        procs = []
        for j, proc in enumerate(state.procs):
            if j == i:
                procs.append(isa.ProcState(proc.regs, proc.pc, sb, proc.ib, proc.rts))
            elif not isa.sb_exist(proc.sb, a):
                # Visible to j since it hit memory, unless j wrote it,
                # in which case since its creation.
                ts_lower = old_sts if j == old_writer else old_mts
                ib = isa.ib_insert(proc.ib, (a, old_v, ts_lower, ts_upper))
                procs.append(isa.ProcState(proc.regs, proc.pc, proc.sb, ib, proc.rts))
            else:
                procs.append(proc)
        return MachineState(m, tuple(procs), state.gts + 1, state.next_tag)

    def check_invariants(self, state: MachineState) -> None:
        bound = state.gts + 1
        for _, (_, _, sts, mts) in state.m:
            assert sts <= bound and mts <= bound
        for proc in state.procs:
            pending = {e[0] for e in proc.sb}
            stale = {e[0] for e in proc.ib}
            assert not (pending & stale), "sb/ib address exclusion broken"
            assert proc.rts <= state.gts
            for _, (_, ts) in proc.regs:
                assert ts <= bound
            for _, _, sts in proc.sb:
                assert sts <= bound
            for _, _, ts_lower, ts_upper in proc.ib:
                assert ts_lower <= ts_upper, "ib interval inverted"
                assert ts_upper <= state.gts

    def _describe_payload(self, rule: RuleInstance) -> str:
        if rule.rule == "WMM-D-DeqSb":
            return self.addr_name(rule.payload[0])
        if rule.rule == "WMM-D-LdIb":
            return f"stale entry {rule.payload[0]}"
        return super()._describe_payload(rule)
