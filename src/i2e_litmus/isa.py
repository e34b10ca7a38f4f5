"""Decoded instructions, the per-thread register machine, and buffers.

The register machine is deliberately pure: `compile_thread` decodes a
thread once per pc, and `decode` finishes the instruction at a
processor's pc against its register file into a fully evaluated
instruction (and the registers it read).  Neither writes a register,
memory or a buffer: each model rule builds its processor's successor
`ProcState` itself, writing the destination register and moving the
program counter.

Store buffers keep each address's entries in age order, oldest first,
the order every rule reads: `sb_enq` appends (one global age order),
and WMM-S's `sb_insert` keeps its buffers in address order.
Invalidation buffers keep insertion order.  Both are plain tuples of
entry tuples whose first element is always the address, so one set of
helpers serves the untagged, timestamped, and tagged entry shapes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .litmus import Assign, Branch, Exit, Fence, Load, LitmusError, Store, Unit, record, wrap64


class MachineError(LitmusError):
    """A litmus program drove the machine somewhere illegal."""


# ---------------------------------------------------------------------------
# Decoded instruction set
# ---------------------------------------------------------------------------

@record
class Nm(NamedTuple):
    """Anything that does not touch memory: arithmetic and branches."""

    dst: Optional[str]
    v: int
    next_pc: int


@record
class Ld(NamedTuple):
    a: int
    dst: str


@record
class St(NamedTuple):
    a: int
    v: int


class Commit(Unit):
    __slots__ = ()


class Reconcile(Unit):
    __slots__ = ()


class Halt(Unit):
    """The thread is past its last instruction (or hit exit)."""

    __slots__ = ()


COMMIT = Commit()
RECONCILE = Reconcile()
HALT = Halt()


# ---------------------------------------------------------------------------
# Register file (a sorted tuple of (name, value) pairs; memory shares it)
# ---------------------------------------------------------------------------

def reg_get(regs: tuple, name: str, default=0):
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


class ProcState(NamedTuple):
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
# Compile / decode
# ---------------------------------------------------------------------------

def _check_address(a: int) -> int:
    if a < 0:
        raise MachineError(f"computed a negative address ({a})")
    return a


def _operand(expr, amap) -> tuple[int, tuple]:
    """expr as its constant part and its (sign, register) terms."""
    const, terms = 0, []
    for sign, kind, payload in expr.terms:
        if kind == "reg":
            terms.append((sign, payload))
        else:
            const += sign * (payload if kind == "const" else amap[payload])
    return const, tuple(terms)


def _entry(ins, pc: int, amap, read):
    """The table entry of ins at pc: its (decoded instruction, sources)
    pair, or a function of the register file that returns the pair."""
    if isinstance(ins, Branch):  # tests the register's own value, not wrap64 of it
        reg, eqz = ins.reg, ins.cond == "eqz"
        taken, fall = (Nm(None, 0, ins.target_index), (reg,)), (Nm(None, 0, pc + 1), (reg,))
        return lambda regs: taken if (read(regs, reg) == 0) == eqz else fall
    if isinstance(ins, Assign):
        exprs, build = (ins.expr,), lambda v: Nm(ins.dst, v, pc + 1)
    elif isinstance(ins, Load):
        exprs, build = (ins.addr,), lambda a: Ld(_check_address(a), ins.dst)
    elif isinstance(ins, Store):
        exprs, build = (ins.addr, ins.value), lambda a, v: St(_check_address(a), v)
    elif isinstance(ins, Fence):
        exprs, build = (), lambda: COMMIT if ins.kind == "Commit" else RECONCILE
    elif isinstance(ins, Exit):
        exprs, build = (), lambda: HALT
    else:
        raise MachineError(f"cannot decode {ins!r}")
    operands = [_operand(expr, amap) for expr in exprs]
    sources = tuple(r for _, terms in operands for _, r in terms)

    def entry(regs):
        values = []
        for const, terms in operands:
            for sign, r in terms:
                const += sign * read(regs, r)
            values.append(wrap64(const))
        return build(*values), sources

    if sources:
        return entry
    try:
        return entry(())
    except MachineError:
        return entry  # a constant negative address fails only when reached


def compile_thread(instrs: tuple, amap, timed: bool = False) -> tuple:
    """Decode each pc of a thread once, plus one Halt entry past its end.

    An instruction that reads registers becomes a function of the
    register file instead, whose values are ints, or (value, timestamp)
    pairs when `timed`.  A negative address fails only when its
    instruction is reached; a branch without a target fails here.
    """
    read = (lambda regs, r: reg_get(regs, r, (0, 0))[0]) if timed else reg_get
    for ins in instrs:
        if isinstance(ins, Branch) and not 0 <= ins.target_index <= len(instrs):
            raise MachineError(f"branch to {ins.target!r} has no target in its thread")
    return tuple(_entry(ins, pc, amap, read) for pc, ins in enumerate(instrs)) + ((HALT, ()),)


def decode(table: tuple, proc: ProcState) -> tuple[object, tuple[str, ...]]:
    """The instruction at proc's pc, from its thread's `compile_thread`
    table, and the registers it read (its sources; the pc never counts)."""
    entry = table[proc.pc]
    return entry if type(entry) is tuple else entry(proc.regs)


# ---------------------------------------------------------------------------
# Store buffer
# ---------------------------------------------------------------------------
# Entries are (a, v), (a, v, sts) or (a, v, tag), each address's oldest first.

def sb_enq(sb: tuple, entry: tuple) -> tuple:
    return sb + (entry,)


def sb_insert(sb: tuple, entry: tuple) -> tuple:
    """Enqueue entry behind its address's entries, ahead of larger addresses."""
    a = entry[0]
    n = len(sb)
    while n and sb[n - 1][0] > a:
        n -= 1
    return sb[:n] + (entry,) + sb[n:]


def sb_exist(sb: tuple, a: int) -> bool:
    for entry in sb:
        if entry[0] == a:
            return True
    return False


def sb_youngest(sb: tuple, a: int) -> Optional[tuple]:
    for entry in reversed(sb):
        if entry[0] == a:
            return entry
    return None


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


# ---------------------------------------------------------------------------
# Invalidation buffer
# ---------------------------------------------------------------------------
# Entries are (a, v) or (a, v, tsL, tsU); tuple order is insertion order.
# In the timestamped machine an entry's insertion time equals its tsU.

def ib_insert(ib: tuple, entry: tuple) -> tuple:
    return ib + (entry,)


def ib_entries(ib: tuple, a: int) -> tuple[tuple, ...]:
    """Entries for one address, oldest insertion first.

    This is the enumeration behind every "pick a random stale value"
    step: the explorer turns each index into a distinct rule instance.
    """
    return tuple(e for e in ib if e[0] == a)


def ib_rm_older(ib: tuple, a: int, choice: int) -> tuple:
    """The paper's rmOlder: ib less every entry for a inserted before its
    choice-th one.  The chosen entry, younger ones and other addresses
    stay."""
    older = [n for n, e in enumerate(ib) if e[0] == a][:choice]
    return tuple(e for n, e in enumerate(ib) if n not in older)


def ib_rm_addr(ib: tuple, a: int) -> tuple:
    return tuple(e for e in ib if e[0] != a)
