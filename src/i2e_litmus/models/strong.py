"""PSO, TSO and SC as deltas on WMM's rule catalog.

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

SC is TSO whose store reaches memory in the step that executes it:
`SC-St` is TSO's St followed by the DeqSb of the store it has just
buffered, read from the drain memo (`_drains_of`) and written by
`_dequeue`.  So no reached SC state holds a store, SC's background
offers nothing, every load reads memory, and Commit and Reconcile are
no-ops, which lets one litmus file run unchanged under every model.
"""

from __future__ import annotations

from functools import cached_property

from .. import isa
from .base import MachineState, RuleInstance, mem_set
from .wmm import WmmModel


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


class ScModel(TsoModel):
    model_id = "sc"

    NM_RULE = "SC-Nm"
    LDSB_RULE = LDMEM_RULE = LDIB_RULE = "SC-Ld"
    ST_RULE = "SC-St"
    COM_RULE = "SC-Com"
    REC_RULE = "SC-Rec"

    _local_kinds = (isa.Nm, isa.Commit)  # SC-St writes memory: it is no local step

    def expand(self, state: MachineState):
        """TSO's steps, each St fused with the DeqSb of the store it has
        just buffered, so every reached buffer is empty."""
        st = self.ST_RULE
        for rule, nxt in super().expand(state):
            if rule.rule == st:
                i = rule.proc
                (_, entry, drained), = self._drains_of(i, nxt.procs[i])
                nxt = self._dequeue(nxt, i, entry, {i: drained})
            yield rule, nxt

    def _background(self, state: MachineState):
        """Nothing: no reached state holds a store."""
        return ()
