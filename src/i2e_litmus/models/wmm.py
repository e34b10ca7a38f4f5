"""The WMM rule catalog: store buffers plus invalidation buffers.

Every model is this catalog of guarded rules over an immutable
`MachineState`, and `expand` is the catalog: a lazy generator of (rule
instance, successor) pairs, one per instance whose guard holds
(nondeterministic choices are separate instances), each guard and
decode computed once.  The explorer and `replay` drive it.

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

Stale values that their processor can never load are not kept.
`liveness` computes, on first use, per thread and pc, the addresses
whose stale value a later load of that thread may still read: a backward
dataflow over the thread's control flow in which a load adds its
address, Reconcile clears the set, and a store to a constant address
removes that address (the store purges it from the ib).  A load whose
address comes from a register makes every address live.  DeqSb skips a
processor at whose pc the address is dead, and a processor whose pc
moves on drops the values that just became dead.  On every path the
Reconcile or store that would remove such a value comes before any load
that could read it, so states that differ only in dead values reach the
same outcomes, and the search merges them.  The test suite keeps the
unreduced machine as a reference.  WMM-LdIb is offered for every stale
value, as in the paper, even where its successor is one that WMM-LdMem
or another choice also gives: the search merges those.

Every rule fires instantaneously, and a processor-local rule (Nm, LdSb,
LdMem, LdIb, St, Commit, Reconcile) reads its own ProcState and at most
one global value: LdMem the memory cell at its address, Reconcile `gts`.
St reads none, WMM-S's tag included.  Its successor ProcState is
therefore a pure function of that ProcState and that value, and so is
the dead-stale-value drop above, which reads only the new pc.  `expand`
memoizes it per thread: the memo maps a ProcState to its (rule
instance, successor ProcState) pairs, or, for a step that reads a
global value, to a `_Reads` of those pairs keyed by the value.  A hit
only splices the successor into the state; a miss decodes the
instruction once and runs the rule.  The timestamp hooks take the
ProcState and the keyed value, never the state, so no rule can read a
global value its key leaves out.  The memo is filled from the liveness
tables: they must not change once a model has expanded a state.

Three steps are processor-local: Nm, St, and Commit once the buffer is
empty.  Each reads and writes its own ProcState and nothing else, so
where it falls among the other processors' steps changes no outcome.
`_proc_steps` marks such a step `_Local` when it fills the memo
(`_local_kinds`; SC's St, which also writes memory, is not one), and
where some processor's step is local, `expand` offers only the first
such processor's step: no other processor's step and no background
rule.  That is a one-step persistent set (Godefroid, *Partial-Order
Methods for the Verification of Concurrent Systems*, LNCS 1032, 1996).
Let t be processor i's local step.

* t stays enabled, with the same rule instance, until i fires it.  No
  other rule writes i's registers or pc, so i's next instruction stays
  the same.  Other rules only remove from i's buffer (DeqSb) or add to
  its ib (DeqSb's stale offer); WMM-S's Copy adds to a buffer only when
  its processor's next instruction is a load.  So Commit's empty buffer
  stays empty.
* t commutes with every other rule instance u enabled beside it: u stays
  enabled after t, and both orders reach the same state.
  - Another processor's step reads at most a memory cell or `gts`,
    which t does not write, and writes only its own ProcState.
  - i's own DeqSb: St enqueues behind its address's entries, so the
    oldest entry per address, and TSO's `sb[0]`, stay the oldest, in
    i's buffer and in every buffer holding a WMM-S copy.
  - A DeqSb that offers a stale value for address a to i: the offer
    needs a live at i's pc and no store to a in i's buffer.  t moves
    the pc to pc'.  The addresses live at pc are those live at pc',
    plus, at a branch, those live at its other target, less, at a
    constant store, its own address.  So a value offered before t that
    is dead at pc' is dropped when t settles; a value for St's address
    is not offered before a constant store and is purged by a computed
    one; and after St, the pending store refuses it.  Either order
    leaves the same ib.
  - WMM-S's Copy guard reads per-address tag lists.  St's fresh tag is
    the last entry of i's list and in no other, and the copy's target
    is not i, so no guard changes.
  - WMM-D: St stamps its entry from i's own registers (`ats`), and
    DeqSb's stale intervals read only memory and the clock.
* So any run from a state where t is enabled to a terminal state, in
  which every processor has halted, fires t, and t moved to its front
  gives a run as long that reaches the same final state.  By induction
  on the length of the shortest such run, the reduced search reaches
  every terminal outcome.  Terminal states are those in which nothing is
  enabled, so no cycle proviso is needed: a thread that loops through
  local steps forever halts in no run of either machine.  Each reduced
  run is a run of the full machine, so no outcome is added.
* WMM-S's St picks its tag's k from its own buffer.  If i's own DeqSb
  drains an earlier instance of the same (thread, pc) store, the two
  orders differ only by k.  Such states are equal up to a renaming of
  tags that keeps each tag's thread and pc; the rules read tags only by
  equality and by their thread, and St's fresh tag is fresh under either
  name, so they reach the same outcomes (see `wmm_s.py`).

Reconcile is not local: it clears the ib, which DeqSb fills.  The test
suite switches the reduction off (`oracle.every_step`) as its reference.

DeqSb is the one rule that acts on several processors: memory, the
holder's buffer, and the other processors' ibs.  Its holder side is a
pure function of the holder's ProcState: which addresses it drains, in
`sb_addrs` order, the oldest entry for each, and the holder once that
entry has left its buffer, `ProcState(regs, pc, sb_rm_oldest(...), ib,
rts)`.  Its pc does not move, so no stale value dies and nothing needs
settling.  `_background` therefore reads each buffered processor's
drains from a second per-thread memo (`_drains_of`), and per state
builds only what needs the whole state: the memory write
(`_write_memory`), which reads the overwritten cell and the clock, and
the stale-value offers to the other processors (`_offer_stale`), which
read their own pcs and buffers.  Neither memo refers to the model (a
`_Reads` is handed it), so a model is freed with its last reference.

The guard that picks a load's rule also fixes its effect, whatever the
rule's name: a buffered address bypasses, anything else reads memory,
and each stale choice reads the ib.

WMM-D, WMM-S, PSO, TSO and SC subclass this catalog and rename its rules
through the class attributes `NM_RULE` ... `DEQ_RULE`.  PSO and TSO
(`strong.py`) keep no live stale value, so one name, `TSO-Ld`, covers
both LdSb and LdMem, and their DeqSb (`_dequeue`) neither reads the
overwritten value nor offers it; TSO's `_drain_steps` drains only the
globally oldest store, a DeqSb with no address.  SC is TSO whose St
drains its store in the same step.  WMM-D's LdIb keeps the stale value
it reads (`_stale_loads`), and where a load's address reads a register,
its timestamps live in hooks that WMM implements without them, at most
one per fired rule: `_nm_value`, `_load_sb`, `_load_mem`,
`_stale_loads`, `_store_entry` and `_write_memory` (see `wmm_d.py`).
WMM-S tags its stores through `_store_entry` and keeps its buffers in
address order through `_enqueue`.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .. import isa
from ..litmus import BoundTest, Branch, Exit, Fence, Load, Outcome, Store


class RuleInstance(NamedTuple):
    """One enabled rule firing: rule id, acting processor, and the
    nondeterministic choice payload (ib entry index, store address, ...)."""

    rule: str
    proc: int
    payload: tuple = ()


class MachineState(NamedTuple):
    """Monolithic memory plus one ProcState per thread.

    `gts` is the global memory-write clock (timestamped machine only);
    it stays 0 elsewhere.
    """

    m: tuple
    procs: tuple
    gts: int = 0


# Memory has the register file's shape: a sorted tuple of (address, value) pairs.
mem_get = isa.reg_get
mem_set = isa.reg_set


class _AnyAddress:
    """The top of the liveness lattice: every address may be loaded."""

    def __contains__(self, a) -> bool:
        return True

    def __or__(self, other):
        return self

    __ror__ = __sub__ = __or__

    def __repr__(self) -> str:
        return "ANY_ADDRESS"


ANY_ADDRESS = _AnyAddress()


class _Local(tuple):
    """A memoized step that reads and writes only its processor's own
    ProcState, its one (rule instance, successor ProcState) pair: `expand`
    fires it alone (see the module docstring)."""

    __slots__ = ()


class _Reads(dict):
    """A memoized step that reads one global value: its (rule instance,
    successor ProcState) pairs keyed by that value, `read(model, state)`,
    and computed on a miss by `step(model, value)`.  Both take the model
    as an argument rather than closing over it, so a model and its memos
    form no reference cycle."""

    __slots__ = ("read", "step")

    def __init__(self, read, step):
        super().__init__()
        self.read, self.step = read, step


def _gts(model, state: MachineState) -> int:
    return state.gts


def _constant_address(expr, amap):
    """The address expr always names, or None if it reads a register."""
    return None if expr.registers() else expr.evaluate(None, amap)


def liveness(instrs: tuple, amap) -> tuple:
    """Per pc (including past the end), the addresses whose stale value a
    later load of this thread may still read.  A load adds its address, or
    every address if the address comes from a register; Exit ends the
    thread.  Reconcile clears the set and a store to a constant address
    removes that address, because each purges the ib first."""
    live: list = [frozenset()] * (len(instrs) + 1)
    changed = True
    while changed:  # backward branches need a fixpoint
        changed = False
        for pc in range(len(instrs) - 1, -1, -1):
            ins = instrs[pc]
            after = live[pc + 1]
            if isinstance(ins, Load):
                a = _constant_address(ins.addr, amap)
                new = ANY_ADDRESS if a is None else after | {a}
            elif isinstance(ins, Store):
                a = _constant_address(ins.addr, amap)
                new = after if a is None else after - {a}
            elif isinstance(ins, Exit) or (isinstance(ins, Fence) and ins.kind == "Reconcile"):
                new = frozenset()
            elif isinstance(ins, Branch):
                new = after | live[ins.target_index]
            else:  # Assign, Commit
                new = after
            if new != live[pc]:
                live[pc] = new
                changed = True
    return tuple(live)


class WmmModel:
    model_id = "wmm"
    timed = False  # registers hold (value, timestamp) pairs

    NM_RULE = "WMM-Nm"
    LDSB_RULE = "WMM-LdSb"
    LDMEM_RULE = "WMM-LdMem"
    LDIB_RULE = "WMM-LdIb"
    ST_RULE = "WMM-St"
    COM_RULE = "WMM-Com"
    REC_RULE = "WMM-Rec"
    DEQ_RULE = "WMM-DeqSb"

    _enqueue = staticmethod(isa.sb_enq)  # how St (and WMM-S's Copy) buffers an entry
    # the decoded instructions whose step `_proc_steps` marks `_Local`
    _local_kinds = (isa.Nm, isa.St, isa.Commit)

    @cached_property
    def stale_live(self) -> tuple:
        """stale_live[i][pc]: addresses thread i may still load a stale value for."""
        return tuple(liveness(instrs, self.addr_map) for instrs in self.programs)

    def __init__(self, bound: BoundTest):
        self.bound = bound
        self.programs = tuple(th.instrs for th in bound.test.threads)
        self.thread_names = tuple(th.name for th in bound.test.threads)
        self.nprocs = len(self.programs)
        self.addr_map = bound.amap()
        # decoded[i][pc]: thread i's instruction at pc, decoded once (isa.decode);
        # halted[i][pc]: it decodes to Halt (exit, or past the end)
        self.decoded = tuple(isa.compile_thread(instrs, self.addr_map, self.timed)
                             for instrs in self.programs)
        self.halted = tuple(tuple(entry == (isa.HALT, ()) for entry in table)
                            for table in self.decoded)
        self.locations = tuple(sorted(self.addr_map))
        self._addr_names = {a: n for n, a in self.addr_map.items()}
        self._proc_of = {name: i for i, name in enumerate(self.thread_names)}
        # (proc index, thread name, register) for each observed register
        self._observed = tuple((self._proc_of[t], t, r) for t, r in bound.observed)
        # _steps[i] and _drains[i]: thread i's step and drain memos (see
        # the module docstring)
        self._steps = tuple({} for _ in self.programs)
        self._drains = tuple({} for _ in self.programs)

    # -- state construction ------------------------------------------------

    def _initial_cell(self, value: int):
        return value

    def _initial_memory(self) -> tuple:
        values = {name: 0 for name in self.locations}
        values.update(dict(self.bound.test.init))
        return tuple(sorted((self.addr_map[name], self._initial_cell(value))
                            for name, value in values.items()))

    def initial_state(self) -> MachineState:
        procs = tuple(isa.ProcState() for _ in range(self.nprocs))
        return MachineState(self._initial_memory(), procs)

    # -- termination and outcomes -------------------------------------------

    def is_terminal(self, state: MachineState) -> bool:
        """All threads are halted and every store buffer has drained."""
        for halted, proc in zip(self.halted, state.procs):
            if proc.sb or not halted[proc.pc]:
                return False
        return True

    def reg_value(self, state: MachineState, i: int, name: str) -> int:
        return isa.reg_get(state.procs[i].regs, name, 0)

    def mem_value(self, state: MachineState, name: str) -> int:
        return mem_get(state.m, self.addr_map[name], 0)

    def outcome(self, state: MachineState) -> Outcome:
        regs = tuple(((t, r), self.reg_value(state, i, r)) for i, t, r in self._observed)
        mem = tuple((name, self.mem_value(state, name)) for name in self.locations)
        return Outcome(regs, mem)

    # -- exploration ---------------------------------------------------------

    def canonical_key(self, state: MachineState):
        """Dedup fingerprint; states compare equal iff they behave alike."""
        return state

    # `enabled` and `apply` wrap `expand`; the library never calls them, but
    # the benchmark's tracer (perfbench/tracing.py) times them on the instance.
    def enabled(self, state: MachineState) -> list[RuleInstance]:
        """The rule instances `expand` offers in state."""
        return [rule for rule, _ in self.expand(state)]

    def apply(self, state: MachineState, rule: RuleInstance) -> MachineState:
        """The successor of firing rule; ValueError if `expand` does not offer it."""
        for offered, nxt in self.expand(state):
            if offered == rule:
                return nxt
        raise ValueError(f"rule not enabled: {rule}")

    def expand(self, state: MachineState):
        m, procs, gts = state
        halted, memos = self.halted, self._steps
        waiting = []
        for i, proc in enumerate(procs):
            if halted[i][proc.pc]:
                continue
            memo = memos[i]
            steps = memo.get(proc)
            if steps is None:
                steps = memo[proc] = self._proc_steps(i, proc)
            if type(steps) is _Local:  # fired alone (the module docstring)
                (rule, nxt), = steps
                yield rule, MachineState(m, procs[:i] + (nxt,) + procs[i + 1:], gts)
                return
            waiting.append((i, steps))
        for i, steps in waiting:
            if type(steps) is _Reads:
                value = steps.read(self, state)
                pairs = steps.get(value)
                if pairs is None:
                    pairs = steps[value] = steps.step(self, value)
                steps = pairs
            for rule, nxt in steps:
                yield rule, MachineState(m, procs[:i] + (nxt,) + procs[i + 1:], gts)
        yield from self._background(state)

    def _proc_steps(self, i: int, proc: isa.ProcState):
        """Processor i's (rule instance, successor ProcState) pairs from
        proc, as a `_Local` for a processor-local step, or a `_Reads` for a
        step that also reads one global value."""
        dins, sources = isa.decode(self.decoded[i], proc)
        kind = type(dins)
        if kind is isa.Ld:
            a = dins.a
            if isa.sb_exist(proc.sb, a):
                nxt = isa.execute(proc, dins, self._load_sb(proc, sources, a))
                return (RuleInstance(self.LDSB_RULE, i), self._settle(i, nxt)),
            default = self._initial_cell(0)
            return _Reads(lambda model, state: mem_get(state.m, a, default),
                          lambda model, cell: model._load_steps(i, proc, dins, sources, cell))
        if kind is isa.St:
            sb = self._enqueue(proc.sb, self._store_entry(i, proc, sources, dins))
            nxt = isa.ProcState(proc.regs, proc.pc + 1, sb,
                                proc.ib and isa.ib_rm_addr(proc.ib, dins.a), proc.rts)
            rule = self.ST_RULE
        elif kind is isa.Nm:
            nxt = isa.execute(proc, dins, self._nm_value(proc, sources, dins))
            rule = self.NM_RULE
        elif kind is isa.Commit:
            if proc.sb:
                return ()
            nxt = isa.execute(proc, dins)
            rule = self.COM_RULE
        else:
            def reconcile(model, gts):  # rts = gts; only the timestamped machine's clock moves
                return (RuleInstance(model.REC_RULE, i),
                        isa.ProcState(proc.regs, proc.pc + 1, proc.sb, (), gts)),
            return _Reads(_gts, reconcile)
        step = (RuleInstance(rule, i), self._settle(i, nxt)),
        return _Local(step) if kind in self._local_kinds else step

    def _load_steps(self, i: int, proc: isa.ProcState, dins: isa.Ld, sources: tuple,
                    cell) -> tuple:
        """A load that reads memory, whose cell for the address is cell,
        then one load per stale choice."""
        a = dins.a
        nxt = isa.execute(proc, dins, self._load_mem(i, proc, sources, cell))
        if not proc.ib:
            return (RuleInstance(self.LDMEM_RULE, i), self._settle(i, nxt)),
        nxt = isa.ProcState(nxt.regs, nxt.pc, nxt.sb, isa.ib_rm_addr(proc.ib, a), nxt.rts)
        pairs = [(RuleInstance(self.LDMEM_RULE, i), self._settle(i, nxt))]
        for k, value, ib in self._stale_loads(proc, sources, a):
            nxt = isa.execute(isa.ProcState(proc.regs, proc.pc, proc.sb, ib, proc.rts),
                              dins, value)
            pairs.append((RuleInstance(self.LDIB_RULE, i, (k,)), self._settle(i, nxt)))
        return tuple(pairs)

    def _settle(self, i: int, proc: isa.ProcState) -> isa.ProcState:
        """Processor i once it has executed an instruction and become proc,
        less the stale values it can no longer load from its new pc."""
        if proc.ib:
            live = self.stale_live[i][proc.pc]
            if live is not ANY_ADDRESS:
                ib = tuple(e for e in proc.ib if e[0] in live)
                if len(ib) != len(proc.ib):
                    return isa.ProcState(proc.regs, proc.pc, proc.sb, ib, proc.rts)
        return proc

    def _background(self, state: MachineState):
        """DeqSb: any buffer's oldest store for any address reaches memory."""
        for i, proc in enumerate(state.procs):
            if proc.sb:
                for rule, entry, nxt in self._drains_of(i, proc):
                    yield rule, self._dequeue(state, i, entry, {i: nxt})

    def _drains_of(self, i: int, proc: isa.ProcState):
        """`_drain_steps(i, proc)`, from processor i's drain memo."""
        memo = self._drains[i]
        drains = memo.get(proc)
        if drains is None:
            drains = memo[proc] = self._drain_steps(i, proc)
        return drains

    def _drain_steps(self, i: int, proc: isa.ProcState) -> tuple:
        """Processor i's DeqSb instances from buffered proc, each with the
        store entry it writes and proc once the entry has left the buffer:
        one per buffered address, for its oldest store."""
        drains = []
        for a in isa.sb_addrs(proc.sb):
            entry, sb = isa.sb_rm_oldest(proc.sb, a)
            drains.append((RuleInstance(self.DEQ_RULE, i, (a,)), entry,
                           isa.ProcState(proc.regs, proc.pc, sb, proc.ib, proc.rts)))
        return tuple(drains)

    def _dequeue(self, state: MachineState, i: int, entry: tuple,
                 holders: dict) -> MachineState:
        """state once processor i's store entry has reached memory: each
        processor j whose buffer held it becomes holders[j], and every
        other processor is offered the overwritten value."""
        m, gts, stale = self._write_memory(state, i, entry)
        procs = []
        for j, proc in enumerate(state.procs):
            nxt = holders.get(j)
            procs.append(nxt if nxt is not None else self._offer_stale(j, proc, stale[j]))
        return MachineState(m, tuple(procs), gts)

    def _offer_stale(self, j: int, proc: isa.ProcState, stale: tuple) -> isa.ProcState:
        """Processor j after memory overwrote a value: its stale ib entry
        goes in unless j has a pending store to the address or can never
        load it."""
        a = stale[0]
        if a not in self.stale_live[j][proc.pc] or isa.sb_exist(proc.sb, a):
            return proc
        return isa.ProcState(proc.regs, proc.pc, proc.sb,
                             isa.ib_insert(proc.ib, stale), proc.rts)

    # -- timestamp hooks: WMM-D overrides these, WMM needs no timestamps --
    # Each takes the acting ProcState and at most the global value its
    # step is memoized by (the module docstring), never the state.

    def _nm_value(self, proc: isa.ProcState, sources: tuple, dins: isa.Nm):
        return dins.v

    def _load_sb(self, proc: isa.ProcState, sources: tuple, a: int):
        return isa.sb_youngest(proc.sb, a)[1]

    def _load_mem(self, i: int, proc: isa.ProcState, sources: tuple, cell):
        """The value processor i loads from memory cell."""
        return cell

    def _stale_loads(self, proc: isa.ProcState, sources: tuple, a: int):
        """(choice, value loaded, ib left behind) for each stale value of a
        that a load may read: here every one, consumed with `ib_take`."""
        for k in range(len(isa.ib_entries(proc.ib, a))):
            entry, rest = isa.ib_take(proc.ib, a, k)
            yield k, entry[1], rest

    def _store_entry(self, i: int, proc: isa.ProcState, sources: tuple, dins: isa.St) -> tuple:
        """The entry processor i's store enqueues."""
        return dins.a, dins.v

    def _write_memory(self, state: MachineState, i: int, entry: tuple) -> tuple:
        """Memory once processor i's store entry reaches it, the clock, and
        for each processor the ib entry of the value it overwrote."""
        a = entry[0]
        stale = (a, mem_get(state.m, a, 0))
        return mem_set(state.m, a, entry[1]), state.gts, (stale,) * self.nprocs

    # -- presentation --------------------------------------------------------

    def addr_name(self, a: int) -> str:
        return self._addr_names.get(a, str(a))

    def describe_rule(self, rule: RuleInstance) -> str:
        text = f"{self.thread_names[rule.proc]}: {rule.rule}"
        if rule.payload:
            detail = self._describe_payload(rule)
            if detail:
                text += f" ({detail})"
        return text

    def _describe_payload(self, rule: RuleInstance) -> str:
        if rule.rule == self.DEQ_RULE:
            return self.addr_name(rule.payload[0])
        if rule.rule == self.LDIB_RULE:
            return f"stale entry {rule.payload[0]}"
        return ", ".join(str(p) for p in rule.payload)
