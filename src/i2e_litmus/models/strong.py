"""SC as its own rule catalog; PSO and TSO as deltas on WMM's.

SC executes loads and stores directly against the monolithic memory.
Commit and Reconcile are no-ops there, since there is no buffer, so one
litmus file runs unchanged under every model.

PSO is WMM with no live stale value: its `stale_live` table is empty at
every pc, so DeqSb never inserts a stale value, LdIb is never
offered, and Reconcile clears an already empty invalidation buffer.
Its DeqSb therefore writes memory and takes the holder's memoized
successor without reading the overwritten value or offering it to
anyone (`PsoModel._dequeue`).
What remains is WMM's store buffer: a load bypasses from the youngest
local store to its address, else reads memory; Commit blocks until the
buffer drains; and the background DeqSb writes the oldest store *for
any address* to memory, reordering stores to different addresses.
TSO is PSO whose DeqSb drains only each buffer's globally oldest store,
so it names no address; its drain memo holds that one drain
(`TsoModel._drain_steps`).

The paper's TSO table has one load rule, whose effect depends on the
buffer, so `TSO-Ld` names both of WMM's LdSb and LdMem effects:
`WmmModel.expand` picks the effect from whether the buffer holds the
address, the guard it checked, not from the rule name.
"""

from __future__ import annotations

from functools import cached_property

from .. import isa
from .base import BaseModel, MachineState, RuleInstance, mem_get, mem_set
from .wmm import WmmModel


class ScModel(BaseModel):
    model_id = "sc"

    _RULES = {isa.Nm: "SC-Nm", isa.Ld: "SC-Ld", isa.St: "SC-St",
              isa.Commit: "SC-Com", isa.Reconcile: "SC-Rec"}

    def expand(self, state: MachineState):
        for i, proc in enumerate(state.procs):
            if self.halted[i][proc.pc]:
                continue
            dins = isa.decode(self.decoded[i], proc)[0]
            kind = type(dins)
            m = state.m
            if kind is isa.Ld:
                nxt = isa.execute(proc, dins, mem_get(m, dins.a, 0))
            else:
                nxt = isa.execute(proc, dins)
                if kind is isa.St:
                    m = mem_set(m, dins.a, dins.v)
            procs = state.procs[:i] + (nxt,) + state.procs[i + 1:]
            yield RuleInstance(self._RULES[kind], i), MachineState(m, procs)


class PsoModel(WmmModel):
    model_id = "pso"

    NM_RULE = "TSO-Nm"
    LDSB_RULE = LDMEM_RULE = LDIB_RULE = "TSO-Ld"
    ST_RULE = "TSO-St"
    COM_RULE = "TSO-Com"
    REC_RULE = "TSO-Rec"
    DEQ_RULE = "PSO-DeqSb"

    @cached_property
    def stale_live(self) -> tuple:
        """No address at any pc: no stale value is ever kept."""
        return tuple((frozenset(),) * (len(instrs) + 1) for instrs in self.programs)

    def _dequeue(self, state: MachineState, i: int, entry: tuple,
                 holders: dict) -> MachineState:
        """state once processor i's store entry has reached memory and i
        has become holders[i].  No processor keeps a stale value, so the
        overwritten value is neither read nor offered."""
        procs = state.procs
        return MachineState(mem_set(state.m, entry[0], entry[1]),
                            procs[:i] + (holders[i],) + procs[i + 1:], state.gts)


class TsoModel(PsoModel):
    model_id = "tso"

    DEQ_RULE = "TSO-DeqSb"

    def _drain_steps(self, i: int, proc: isa.ProcState) -> tuple:
        """One DeqSb, for the buffer's globally oldest store."""
        return (RuleInstance(self.DEQ_RULE, i), proc.sb[0],
                isa.ProcState(proc.regs, proc.pc, proc.sb[1:], proc.ib, proc.rts)),
