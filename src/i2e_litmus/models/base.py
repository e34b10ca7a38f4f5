"""Shared machinery for the rule-based machines.

Every model is a catalog of guarded rules over an immutable
`MachineState`, and `expand` is that catalog: a lazy generator of
(rule instance, successor) pairs, one per instance whose guard holds
(nondeterministic choices are separate instances), each guard and
decode computed once.  The explorer and `replay` drive it; `enabled`
and `apply` are thin wrappers over it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .. import isa
from ..litmus import BoundTest, Outcome


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


class BaseModel:
    model_id = ""
    timed = False  # registers hold (value, timestamp) pairs

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

    # -- exploration hooks ---------------------------------------------------

    def canonical_key(self, state: MachineState):
        """Dedup fingerprint; states compare equal iff they behave alike."""
        return state

    def check_invariants(self, state: MachineState) -> None:
        """Raise AssertionError if a structural invariant is broken."""

    def expand(self, state: MachineState) -> Iterator[tuple[RuleInstance, MachineState]]:
        """Each rule instance that may fire in state, with its successor."""
        raise NotImplementedError

    def enabled(self, state: MachineState) -> list[RuleInstance]:
        return [rule for rule, _ in self.expand(state)]

    def apply(self, state: MachineState, rule: RuleInstance) -> MachineState:
        """The successor of firing rule; ValueError if `expand` does not offer it."""
        for offered, nxt in self.expand(state):
            if offered == rule:
                return nxt
        raise ValueError(f"rule not enabled: {rule}")

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
        return ", ".join(str(p) for p in rule.payload)
