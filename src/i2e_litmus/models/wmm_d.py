"""WMM-D: the WMM rules plus a timestamp calculus for data dependencies.

A global clock `gts` ticks once per memory write.  Every value carries
the time it was created: register values are (value, ts) pairs, store
buffer entries carry the store's creation time sts (the latest stamp
among the registers it read), and each memory location holds ⟨v,
writer, sts, mts⟩ - the writing processor, the store's creation time,
and the time the value became visible in memory (one past the write).
Stale ib entries carry the interval [tsL, tsU] during which this
processor could have observed the value: tsL is the writer's sts for
the writer and mts for everyone else, and tsU is the clock when the
value was overwritten.

In the paper a load's result timestamp is max(ats, rts, vts): the
address operand's timestamp ats, the processor's last Reconcile time
rts (Reconcile sets rts = gts), and the moment the value became visible
to this processor, vts (sts when reading one's own store, mts from
memory otherwise, tsL from the ib).  Reading a stale value is allowed
only if ats <= tsU, the machine's one guard that reads a timestamp.

This machine keeps no rts, and stamps a load max(ats, vts)
(`load_value_timestamp`).  That reaches the paper's outcomes:

* rts only grows: gts never falls, and each Reconcile sets rts = gts.
* rts reaches only its own processor's timestamps.  A load folds rts
  into its register; Nm and later loads pass a register's stamp on to
  other registers of the same processor; a store passes it into its
  entry's sts.  An sts reaches only its writer: LdSb reads the writer's
  own buffer, LdMem reads sts only where the reader wrote the cell and
  mts otherwise, and a stale entry's tsL is sts only in the writer's ib.
  mts and tsU come from the clock alone.
* So in a run of the paper's machine every timestamp T of processor i
  is max(T', R), where T' is the stamp the same run gives it here and R
  is 0 or an rts of i taken no later than now, so R <= i's rts now.
* Every entry of i's ib was inserted after i's latest Reconcile, which
  cleared the ib, by a DeqSb whose clock was at least the gts that
  Reconcile recorded.  So its tsU >= rts >= R, and max(ats', R) <= tsU
  holds exactly when ats' <= tsU does.
* The guard therefore agrees in every state of the run, no other guard
  reads a timestamp, and no value depends on one: the two machines
  offer the same rule instances with the same values at every step, so
  they have the same runs, rule for rule, and the same outcomes.

With no rts, Reconcile reads and writes only its own ProcState, as on
every other machine, and `wmm.py` fires it alone.

Everything else is WMM's rule catalog, with rules named WMM-D-*.  Its
LdIb is WMM's: the paper's rmOlder is strict, so it keeps the entry it
reads and drops the address's entries inserted before it
(`isa.ib_rm_older`), which are those with an earlier tsU, since gts
ticks on every write and entries are appended.  WMM-D therefore only
adds the ats <= tsU guard, and every WMM-D run, its rules renamed, is a
WMM run.  The stale-value liveness reduction (`wmm.liveness`) applies
unchanged: timestamps matter only when a stale value is read, and a dead
one never is.

The model is built as one of two machines, chosen from the test
(`WmmDModel.__new__`):

* `TimestampedWmmDModel`, where some thread has a load whose address
  reads a register.  Registers are decoded as (value, ts) pairs, and its
  timestamp hooks stamp results (`_nm_value` with ats, `_load_sb` with
  the entry's sts, `_load_mem` with sts or mts by writer); offer a stale
  value only when ats <= tsU and stamp it with tsL (`_stale_loads`);
  stamp a buffered store (`_store_entry`); and write the memory cell,
  tick `gts` and hand out [tsL, tsU] stale entries (`_write_memory`).
* `WmmDModel` itself everywhere else: WMM's machine, with no clocks.
  That is the timestamped machine with its clocks left out, since no
  guard reads a timestamp there: the only one is ats <= tsU, and ats = 0
  at a constant address.
"""

from __future__ import annotations

from .. import isa
from ..litmus import BoundTest, Load
from .wmm import MachineState, WmmModel, mem_get, mem_set


def load_value_timestamp(ats: int, vts: int) -> int:
    """When a load's result becomes derivable: the later of its address
    operand's stamp and the time its value became visible (no rts: see
    the module docstring)."""
    return max(ats, vts)


def _ats(proc: isa.ProcState, sources: tuple) -> int:
    """The latest timestamp among the registers an instruction read."""
    return max(isa.reg_get(proc.regs, r, (0, 0))[1] for r in sources) if sources else 0


class WmmDModel(WmmModel):
    model_id = "wmm-d"

    NM_RULE = "WMM-D-Nm"
    LDSB_RULE = "WMM-D-LdSb"
    LDMEM_RULE = "WMM-D-LdMem"
    LDIB_RULE = "WMM-D-LdIb"
    ST_RULE = "WMM-D-St"
    COM_RULE = "WMM-D-Com"
    REC_RULE = "WMM-D-Rec"
    DEQ_RULE = "WMM-D-DeqSb"

    def __new__(cls, bound: BoundTest):
        """The timestamped machine if some load's address reads a register."""
        timed = any(isinstance(ins, Load) and ins.addr.registers()
                    for th in bound.test.threads for ins in th.instrs)
        return super().__new__(TimestampedWmmDModel if timed else cls)


class TimestampedWmmDModel(WmmDModel):
    timed = True

    def _initial_cell(self, value: int):
        return (value, None, 0, 0)  # value, writer, creation time, memory time

    def reg_value(self, state: MachineState, i: int, name: str) -> int:
        return isa.reg_get(state.procs[i].regs, name, (0, 0))[0]

    def mem_value(self, state: MachineState, name: str) -> int:
        return mem_get(state.m, self.addr_map[name])[0]

    def _nm_value(self, proc: isa.ProcState, sources: tuple, dins: isa.Nm):
        return dins.v, _ats(proc, sources)

    def _load_sb(self, proc: isa.ProcState, sources: tuple, a: int):
        _, v, sts = isa.sb_youngest(proc.sb, a)
        return v, load_value_timestamp(_ats(proc, sources), sts)

    def _load_mem(self, i: int, proc: isa.ProcState, sources: tuple, cell):
        v, writer, sts, mts = cell
        vts = sts if writer == i else mts
        return v, load_value_timestamp(_ats(proc, sources), vts)

    def _stale_loads(self, proc: isa.ProcState, sources: tuple, a: int):
        ats = _ats(proc, sources)
        for k, (_, v, ts_lower, ts_upper) in enumerate(isa.ib_entries(proc.ib, a)):
            if ats <= ts_upper:  # stale-timing: ats must not pass tsU
                yield (k, (v, load_value_timestamp(ats, ts_lower)),
                       isa.ib_rm_older(proc.ib, a, k))

    def _store_entry(self, i: int, proc: isa.ProcState, sources: tuple, dins: isa.St) -> tuple:
        return dins.a, dins.v, _ats(proc, sources)

    def _write_memory(self, state: MachineState, i: int, entry: tuple) -> tuple:
        a, v, sts = entry
        old_v, old_writer, old_sts, old_mts = mem_get(state.m, a, self._initial_cell(0))
        m = mem_set(state.m, a, (v, i, sts, state.gts + 1))
        # The old value was visible to j since it hit memory, unless j
        # wrote it, in which case since its creation; it dies at gts.
        stale = tuple((a, old_v, old_sts if j == old_writer else old_mts, state.gts)
                      for j in range(self.nprocs))
        return m, state.gts + 1, stale
