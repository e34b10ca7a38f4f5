"""SC, TSO, and PSO as rule catalogs.

SC executes loads and stores directly against the monolithic memory.
TSO adds a per-processor store buffer: loads bypass from the youngest
local store when one exists, Commit blocks until the buffer drains, and
a background rule dequeues the globally oldest store to memory.  PSO
relaxes only that background rule: it may dequeue the oldest store *for
any address*, reordering stores to different addresses.

Reconcile has nothing to drop in these machines (there is no stale-value
buffer), so all three accept it as a no-op; Commit under SC is likewise
a no-op since the buffer is always empty.  That way one litmus file runs
unchanged under every model.
"""

from __future__ import annotations

from .. import isa
from .base import BaseModel, MachineState, RuleInstance, mem_get, mem_set


class ScModel(BaseModel):
    model_id = "sc"

    _RULES = {isa.Nm: "SC-Nm", isa.Ld: "SC-Ld", isa.St: "SC-St",
              isa.Commit: "SC-Com", isa.Reconcile: "SC-Rec"}

    def enabled(self, state: MachineState) -> list[RuleInstance]:
        out = []
        for i, proc in enumerate(state.procs):
            if not self.halted[i][proc.pc]:
                dins = isa.decode(self.decoded[i], proc)[0]
                out.append(RuleInstance(self._RULES[type(dins)], i))
        return out

    def apply(self, state: MachineState, rule: RuleInstance) -> MachineState:
        i = rule.proc
        proc = state.procs[i]
        dins = isa.decode(self.decoded[i], proc)[0]
        m = state.m
        if rule.rule == "SC-Ld":
            proc = isa.execute(proc, dins, mem_get(m, dins.a, 0))
        elif rule.rule == "SC-St":
            proc = isa.execute(proc, dins)
            m = mem_set(m, dins.a, dins.v)
        else:  # SC-Nm / SC-Com / SC-Rec
            proc = isa.execute(proc, dins)
        procs = state.procs[:i] + (proc,) + state.procs[i + 1:]
        return MachineState(m, procs)


class TsoModel(BaseModel):
    model_id = "tso"

    DEQ_RULE = "TSO-DeqSb"
    _RULES = {isa.Nm: "TSO-Nm", isa.Ld: "TSO-Ld", isa.St: "TSO-St",
              isa.Commit: "TSO-Com", isa.Reconcile: "TSO-Rec"}

    def enabled(self, state: MachineState) -> list[RuleInstance]:
        out = []
        for i, proc in enumerate(state.procs):
            if self.halted[i][proc.pc]:
                continue
            dins = isa.decode(self.decoded[i], proc)[0]
            if isinstance(dins, isa.Commit):
                if not proc.sb:
                    out.append(RuleInstance("TSO-Com", i))
            else:
                out.append(RuleInstance(self._RULES[type(dins)], i))
        for i in range(self.nprocs):
            out.extend(self._dequeue_instances(state, i))
        return out

    def _dequeue_instances(self, state: MachineState, i: int) -> list[RuleInstance]:
        if state.procs[i].sb:
            return [RuleInstance(self.DEQ_RULE, i)]
        return []

    def _dequeue(self, sb: tuple, rule: RuleInstance) -> tuple[tuple, tuple]:
        """The store a DeqSb writes to memory, and the buffer without it."""
        return isa.sb_deq(sb)

    def apply(self, state: MachineState, rule: RuleInstance) -> MachineState:
        i = rule.proc
        proc = state.procs[i]
        m = state.m
        if rule.rule == self.DEQ_RULE:
            (a, v), sb = self._dequeue(proc.sb, rule)
            proc = isa.ProcState(proc.regs, proc.pc, sb, proc.ib, proc.rts)
            m = mem_set(m, a, v)
        else:
            dins = isa.decode(self.decoded[i], proc)[0]
            if rule.rule == "TSO-Ld":
                hit = isa.sb_youngest(proc.sb, dins.a)
                v = hit[1] if hit is not None else mem_get(m, dins.a, 0)
                proc = isa.execute(proc, dins, v)
            elif rule.rule == "TSO-St":
                proc = isa.execute(proc, dins)
                proc = isa.ProcState(proc.regs, proc.pc, isa.sb_enq(proc.sb, (dins.a, dins.v)),
                                     proc.ib, proc.rts)
            else:  # TSO-Nm / TSO-Com / TSO-Rec
                proc = isa.execute(proc, dins)
        procs = state.procs[:i] + (proc,) + state.procs[i + 1:]
        return MachineState(m, procs)


class PsoModel(TsoModel):
    model_id = "pso"

    DEQ_RULE = "PSO-DeqSb"

    def _dequeue_instances(self, state: MachineState, i: int) -> list[RuleInstance]:
        return [RuleInstance(self.DEQ_RULE, i, (a,))
                for a in isa.sb_addrs(state.procs[i].sb)]

    def _dequeue(self, sb: tuple, rule: RuleInstance) -> tuple[tuple, tuple]:
        return isa.sb_rm_oldest(sb, rule.payload[0])

    def _describe_payload(self, rule: RuleInstance) -> str:
        if rule.rule == self.DEQ_RULE:
            return self.addr_name(rule.payload[0])
        return super()._describe_payload(rule)
