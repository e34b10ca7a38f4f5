"""The WMM rule catalog: store buffers plus invalidation buffers.

On top of PSO-style store buffering, each processor gets an
invalidation buffer (ib) of stale memory values it may still observe;
reading from it is what lets loads appear to overtake older
instructions.  A load has up to three sources, each its own rule:

* WMM-LdSb  - bypass from the youngest local store to that address;
* WMM-LdMem - read the monolithic memory (and purge now-staler ib
  entries for that address);
* WMM-LdIb  - consume one stale ib value, dropping every value for the
  address that was inserted before the chosen one.

When the background WMM-DeqSb rule writes a store to memory, the
overwritten value becomes stale and is offered to every *other*
processor's ib, except processors whose own store buffer still holds
that address: once a processor has a pending store to a, it may never
see older values for a.  Stores and memory reads purge the local ib for
their address for the same reason; Reconcile clears it outright.
"""

from __future__ import annotations

from .. import isa
from .base import BaseModel, MachineState, RuleInstance, mem_get, mem_set


class WmmModel(BaseModel):
    model_id = "wmm"

    NM_RULE = "WMM-Nm"
    LDSB_RULE = "WMM-LdSb"
    LDMEM_RULE = "WMM-LdMem"
    LDIB_RULE = "WMM-LdIb"
    ST_RULE = "WMM-St"
    COM_RULE = "WMM-Com"
    REC_RULE = "WMM-Rec"
    DEQ_RULE = "WMM-DeqSb"

    def enabled(self, state: MachineState) -> list[RuleInstance]:
        out = []
        for i in range(self.nprocs):
            out.extend(self._instruction_instances(state, i))
        out.extend(self._background_instances(state))
        return out

    def _instruction_instances(self, state: MachineState, i: int) -> list[RuleInstance]:
        proc = state.procs[i]
        dins = self.decode_at(state, i)
        if isinstance(dins, isa.Halt):
            return []
        if isinstance(dins, isa.Nm):
            return [RuleInstance(self.NM_RULE, i)]
        if isinstance(dins, isa.Ld):
            if isa.sb_exist(proc.sb, dins.a):
                return [RuleInstance(self.LDSB_RULE, i)]
            out = [RuleInstance(self.LDMEM_RULE, i)]
            out.extend(RuleInstance(self.LDIB_RULE, i, (k,))
                       for k in range(len(isa.ib_entries(proc.ib, dins.a))))
            return out
        if isinstance(dins, isa.St):
            return [RuleInstance(self.ST_RULE, i)]
        if isinstance(dins, isa.Commit):
            if isa.sb_empty(proc.sb):
                return [RuleInstance(self.COM_RULE, i)]
            return []
        return [RuleInstance(self.REC_RULE, i)]

    def _background_instances(self, state: MachineState) -> list[RuleInstance]:
        return [RuleInstance(self.DEQ_RULE, i, (a,))
                for i in range(self.nprocs)
                for a in isa.sb_addrs(state.procs[i].sb)]

    def apply(self, state: MachineState, rule: RuleInstance) -> MachineState:
        if rule.rule == self.DEQ_RULE:
            return self._apply_dequeue(state, rule)
        i = rule.proc
        proc = state.procs[i]
        dins = self.decode_at(state, i)
        name = rule.rule
        if name == self.LDSB_RULE:
            proc = isa.execute(proc, dins, isa.sb_youngest(proc.sb, dins.a)[1])
        elif name == self.LDMEM_RULE:
            proc = isa.execute(proc, dins, mem_get(state.m, dins.a, 0))
            proc = isa.ProcState(proc.regs, proc.pc, proc.sb,
                                 isa.ib_rm_addr(proc.ib, dins.a), proc.rts)
        elif name == self.LDIB_RULE:
            entry, ib = isa.ib_take(proc.ib, dins.a, rule.payload[0])
            proc = isa.execute(proc, dins, entry[1])
            proc = isa.ProcState(proc.regs, proc.pc, proc.sb, ib, proc.rts)
        elif name == self.ST_RULE:
            proc = isa.execute(proc, dins)
            proc = isa.ProcState(proc.regs, proc.pc,
                                 isa.sb_enq(proc.sb, self._store_entry(state, dins)),
                                 isa.ib_rm_addr(proc.ib, dins.a), proc.rts)
            return self._finish_store(state, i, proc)
        elif name == self.REC_RULE:
            proc = isa.execute(proc, dins)
            proc = isa.ProcState(proc.regs, proc.pc, proc.sb, (), proc.rts)
        else:  # Nm / Com
            proc = isa.execute(proc, dins)
        procs = state.procs[:i] + (proc,) + state.procs[i + 1:]
        return MachineState(state.m, procs, state.gts, state.next_tag)

    def _store_entry(self, state: MachineState, dins: isa.St) -> tuple:
        return (dins.a, dins.v)

    def _finish_store(self, state: MachineState, i: int, proc) -> MachineState:
        procs = state.procs[:i] + (proc,) + state.procs[i + 1:]
        return MachineState(state.m, procs, state.gts, state.next_tag)

    def _apply_dequeue(self, state: MachineState, rule: RuleInstance) -> MachineState:
        i = rule.proc
        a = rule.payload[0]
        old = mem_get(state.m, a, 0)
        entry, sb = isa.sb_rm_oldest(state.procs[i].sb, a)
        m = mem_set(state.m, a, entry[1])
        procs = []
        for j, proc in enumerate(state.procs):
            if j == i:
                procs.append(isa.ProcState(proc.regs, proc.pc, sb, proc.ib, proc.rts))
            elif not isa.sb_exist(proc.sb, a):
                procs.append(isa.ProcState(proc.regs, proc.pc, proc.sb,
                                           isa.ib_insert(proc.ib, (a, old)), proc.rts))
            else:
                procs.append(proc)
        return MachineState(m, tuple(procs), state.gts, state.next_tag)

    def check_invariants(self, state: MachineState) -> None:
        for proc in state.procs:
            pending = {e[0] for e in proc.sb}
            stale = {e[0] for e in proc.ib}
            overlap = pending & stale
            assert not overlap, (
                f"store buffer and invalidation buffer share addresses {overlap}")

    def _describe_payload(self, rule: RuleInstance) -> str:
        if rule.rule == self.DEQ_RULE:
            return self.addr_name(rule.payload[0])
        if rule.rule == self.LDIB_RULE:
            return f"stale entry {rule.payload[0]}"
        return super()._describe_payload(rule)
