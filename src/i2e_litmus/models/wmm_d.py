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

Everything else is WMM's rule catalog, with rules named WMM-D-*.  Its
LdIb (`_stale_loads`) keeps the entry it reads, as the paper's rmOlder
is strict: it drops the address's entries inserted before the chosen one
(`isa.ib_take` with `keep`), which are those with an earlier tsU, since
gts ticks on every write and entries are appended.  The stale-value
liveness reduction (`wmm.liveness`) applies unchanged: timestamps matter
only when a stale value is read, and a dead one never is.

The model is built as one of two machines, chosen from the test
(`WmmDModel.__new__`):

* `TimestampedWmmDModel`, where some thread has a load whose address
  reads a register.  Registers are decoded as (value, ts) pairs, and its
  timestamp hooks stamp results (`_nm_value` with ats, `_load_sb` with
  the entry's sts, `_load_mem` with sts or mts by writer); offer a stale
  value only when ats <= tsU and stamp it with tsL (`_stale_loads`);
  stamp a buffered store (`_store_entry`); and write the memory cell,
  tick `gts` and hand out [tsL, tsU] stale entries (`_write_memory`).
  WMM's Reconcile already sets rts = gts.
* `WmmDModel` itself everywhere else: WMM's machine, with no clocks.
  That is the timestamped machine with its clocks left out, since no
  guard reads a timestamp there: the only one is ats <= tsU, and ats = 0
  at a constant address.
"""

from __future__ import annotations

from .. import isa
from ..litmus import BoundTest, Load
from .wmm import MachineState, WmmModel, mem_get, mem_set


def load_value_timestamp(ats: int, rts: int, vts: int) -> int:
    """When a load's result becomes derivable: the latest of its inputs."""
    return max(ats, rts, vts)


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

    def _stale_loads(self, proc: isa.ProcState, sources: tuple, a: int):
        """Every stale value of a, as in WMM, but the entry read stays."""
        for k, (_, v) in enumerate(isa.ib_entries(proc.ib, a)):
            yield k, v, isa.ib_take(proc.ib, a, k, keep=True)[1]


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
        return v, load_value_timestamp(_ats(proc, sources), proc.rts, sts)

    def _load_mem(self, i: int, proc: isa.ProcState, sources: tuple, cell):
        v, writer, sts, mts = cell
        vts = sts if writer == i else mts
        return v, load_value_timestamp(_ats(proc, sources), proc.rts, vts)

    def _stale_loads(self, proc: isa.ProcState, sources: tuple, a: int):
        ats = _ats(proc, sources)
        for k, (_, v, ts_lower, ts_upper) in enumerate(isa.ib_entries(proc.ib, a)):
            if ats <= ts_upper:  # stale-timing: ats must not pass tsU
                yield (k, (v, load_value_timestamp(ats, proc.rts, ts_lower)),
                       isa.ib_take(proc.ib, a, k, keep=True)[1])

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
