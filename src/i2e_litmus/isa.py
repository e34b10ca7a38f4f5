"""Decoded instructions, the per-thread register machine, and buffers.

The register machine is deliberately pure: `decode` reads the current
register file and produces a fully evaluated instruction, `execute`
writes a destination register and moves the program counter.  Neither
touches memory or the buffers; those belong to the model rules.

Store buffers keep one global age order (a tuple, oldest first), which
also induces the per-address order every rule needs.  Invalidation
buffers keep insertion order.  Both are plain tuples of entry tuples
whose first element is always the address, so one set of helpers serves
the untagged, timestamped, and tagged entry shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .litmus import Assign, Branch, Exit, Fence, Load, LitmusError, Store


class MachineError(LitmusError):
    """A litmus program drove the machine somewhere illegal."""


# ---------------------------------------------------------------------------
# Decoded instruction set
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Nm:
    """Anything that does not touch memory: arithmetic and branches."""

    dst: Optional[str]
    v: int
    next_pc: int


@dataclass(frozen=True, slots=True)
class Ld:
    a: int
    dst: str


@dataclass(frozen=True, slots=True)
class St:
    a: int
    v: int


@dataclass(frozen=True, slots=True)
class Commit:
    pass


@dataclass(frozen=True, slots=True)
class Reconcile:
    pass


@dataclass(frozen=True, slots=True)
class Halt:
    """The thread is past its last instruction (or hit exit)."""


COMMIT = Commit()
RECONCILE = Reconcile()
HALT = Halt()


# ---------------------------------------------------------------------------
# Register file (a sorted tuple of (name, value) pairs)
# ---------------------------------------------------------------------------

def reg_get(regs: tuple, name: str, default):
    for reg, value in regs:
        if reg == name:
            return value
    return default


def reg_set(regs: tuple, name: str, value) -> tuple:
    out = []
    placed = False
    for reg, old in regs:
        if reg == name:
            out.append((reg, value))
            placed = True
        else:
            out.append((reg, old))
    if not placed:
        out.append((name, value))
        out.sort()
    return tuple(out)


@dataclass(frozen=True, slots=True)
class ProcState:
    """One processor: registers, program counter, and its two buffers.

    Register values are plain ints, or (value, timestamp) pairs in the
    timestamped machine; `rts` records the most recent Reconcile time and
    is only meaningful there.
    """

    regs: tuple = ()
    pc: int = 0
    sb: tuple = ()
    ib: tuple = ()
    rts: int = 0


# ---------------------------------------------------------------------------
# Decode / execute
# ---------------------------------------------------------------------------

def _check_address(a: int) -> int:
    if a < 0:
        raise MachineError(f"computed a negative address ({a})")
    return a


def _decode(instrs: tuple, pc: int, getreg: Callable[[str], int],
            amap) -> tuple[object, tuple[str, ...]]:
    """Decode at pc; also report which registers were read (the sources)."""
    if pc >= len(instrs):
        return HALT, ()
    ins = instrs[pc]
    if isinstance(ins, Assign):
        return Nm(ins.dst, ins.expr.evaluate(getreg, amap), pc + 1), ins.expr.registers()
    if isinstance(ins, Load):
        a = _check_address(ins.addr.evaluate(getreg, amap))
        return Ld(a, ins.dst), ins.addr.registers()
    if isinstance(ins, Store):
        a = _check_address(ins.addr.evaluate(getreg, amap))
        v = ins.value.evaluate(getreg, amap)
        return St(a, v), ins.addr.registers() + ins.value.registers()
    if isinstance(ins, Fence):
        return (COMMIT if ins.kind == "Commit" else RECONCILE), ()
    if isinstance(ins, Branch):
        taken = (getreg(ins.reg) == 0) == (ins.cond == "eqz")
        return Nm(None, 0, ins.target_index if taken else pc + 1), (ins.reg,)
    if isinstance(ins, Exit):
        return HALT, ()
    raise MachineError(f"cannot decode {ins!r}")


def decode(instrs: tuple, proc: ProcState, amap) -> object:
    """Decode the next instruction against plain integer registers."""
    return _decode(instrs, proc.pc, lambda r: reg_get(proc.regs, r, 0), amap)[0]


def decode_ts(instrs: tuple, proc: ProcState, amap) -> tuple[object, int]:
    """Decode against (value, timestamp) registers.

    Returns the decoded instruction and the maximum timestamp over the
    source registers it read (0 when it read none; the pc never counts).
    """
    dins, sources = _decode(instrs, proc.pc,
                            lambda r: reg_get(proc.regs, r, (0, 0))[0], amap)
    ts = max((reg_get(proc.regs, r, (0, 0))[1] for r in sources), default=0)
    return dins, ts


def execute(proc: ProcState, dins, ld_res: Optional[int] = None) -> ProcState:
    """Apply a decoded instruction to the register file and pc, nothing else."""
    if isinstance(dins, Nm):
        regs = proc.regs if dins.dst is None else reg_set(proc.regs, dins.dst, dins.v)
        return ProcState(regs, dins.next_pc, proc.sb, proc.ib, proc.rts)
    if isinstance(dins, Ld):
        if ld_res is None:
            raise MachineError("a load needs its result value")
        return ProcState(reg_set(proc.regs, dins.dst, ld_res), proc.pc + 1,
                         proc.sb, proc.ib, proc.rts)
    if isinstance(dins, (St, Commit, Reconcile)):
        return ProcState(proc.regs, proc.pc + 1, proc.sb, proc.ib, proc.rts)
    raise MachineError(f"cannot execute {dins!r}")


def execute_ts(proc: ProcState, dins, ld_res: Optional[int],
               ts: Optional[int]) -> ProcState:
    """`execute`, then stamp the destination register with ts.

    Instructions without a destination take ts = None and leave every
    register timestamp untouched.
    """
    if isinstance(dins, Nm):
        regs = proc.regs if dins.dst is None else reg_set(proc.regs, dins.dst, (dins.v, ts))
        return ProcState(regs, dins.next_pc, proc.sb, proc.ib, proc.rts)
    if isinstance(dins, Ld):
        if ld_res is None:
            raise MachineError("a load needs its result value")
        return ProcState(reg_set(proc.regs, dins.dst, (ld_res, ts)), proc.pc + 1,
                         proc.sb, proc.ib, proc.rts)
    if isinstance(dins, (St, Commit, Reconcile)):
        return ProcState(proc.regs, proc.pc + 1, proc.sb, proc.ib, proc.rts)
    raise MachineError(f"cannot execute {dins!r}")


# ---------------------------------------------------------------------------
# Store buffer
# ---------------------------------------------------------------------------
# Entries are (a, v), (a, v, sts) or (a, v, tag); tuple order is global age
# order, oldest first.

def sb_enq(sb: tuple, entry: tuple) -> tuple:
    return sb + (entry,)


def sb_empty(sb: tuple) -> bool:
    return not sb


def sb_exist(sb: tuple, a: int) -> bool:
    return any(e[0] == a for e in sb)


def sb_youngest(sb: tuple, a: int) -> Optional[tuple]:
    for entry in reversed(sb):
        if entry[0] == a:
            return entry
    return None


def sb_oldest(sb: tuple, a: int) -> Optional[tuple]:
    for entry in sb:
        if entry[0] == a:
            return entry
    return None


def sb_deq(sb: tuple) -> tuple[tuple, tuple]:
    """Remove the globally oldest entry."""
    if not sb:
        raise MachineError("deq on an empty store buffer")
    return sb[0], sb[1:]


def sb_rm_oldest(sb: tuple, a: int) -> tuple[tuple, tuple]:
    """Remove the oldest entry for one address."""
    for n, entry in enumerate(sb):
        if entry[0] == a:
            return entry, sb[:n] + sb[n + 1:]
    raise MachineError(f"rmOldest: no store for address {a}")


def sb_addrs(sb: tuple) -> tuple[int, ...]:
    """Distinct addresses present, ordered by their oldest entry."""
    seen: list[int] = []
    for entry in sb:
        if entry[0] not in seen:
            seen.append(entry[0])
    return tuple(seen)


def sb_entries(sb: tuple, a: int) -> tuple[tuple, ...]:
    return tuple(e for e in sb if e[0] == a)


def sb_has_tag(sb: tuple, tag: int) -> bool:
    return any(e[2] == tag for e in sb)


# ---------------------------------------------------------------------------
# Invalidation buffer
# ---------------------------------------------------------------------------
# Entries are (a, v) or (a, v, tsL, tsU); tuple order is insertion order.
# In the timestamped machine an entry's insertion time equals its tsU.

def ib_insert(ib: tuple, entry: tuple) -> tuple:
    return ib + (entry,)


def ib_exist(ib: tuple, a: int) -> bool:
    return any(e[0] == a for e in ib)


def ib_entries(ib: tuple, a: int) -> tuple[tuple, ...]:
    """Entries for one address, oldest insertion first.

    This is the enumeration behind every "pick a random stale value"
    step: the explorer turns each index into a distinct rule instance.
    """
    return tuple(e for e in ib if e[0] == a)


def ib_take(ib: tuple, a: int, choice: int) -> tuple[tuple, tuple]:
    """Consume the choice-th stale value for a.

    The chosen entry and every same-address entry inserted before it are
    removed; younger entries and other addresses stay.
    """
    positions = [n for n, e in enumerate(ib) if e[0] == a]
    chosen = positions[choice]
    drop = set(positions[:choice + 1])
    return ib[chosen], tuple(e for n, e in enumerate(ib) if n not in drop)


def ib_rm_addr(ib: tuple, a: int) -> tuple:
    return tuple(e for e in ib if e[0] != a)


def ib_rm_older(ib: tuple, a: int, ts: int) -> tuple:
    """Drop entries for a that were inserted strictly before time ts."""
    return tuple(e for e in ib if e[0] != a or e[3] >= ts)
