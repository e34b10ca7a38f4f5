"""Seeded litmus programs for the `random-weak` and `random-wmms` workloads.

Each program is rendered as litmus text, so the library only ever sees
generated input that goes through `parse`.  Every program carries two
checks whose verdicts are known without running any model:

* ``check allowed``: the outcome of running the threads one after the
  other, in file order, with no reordering.  That outcome is reachable
  under SC and therefore under every weaker model.
* ``check forbidden``: some register or location holding a value that
  cannot flow there: a location only ever holds 0 or a value stored to
  it, a store of a register passes on whatever that register's load
  could read, and a register holds what its address could hold.  No
  model may reach it.

Program *skeletons* (thread count, and for each instruction its kind and
address) come from a stream keyed by the workload name and the program
index only.  The seed draws everything else: the order of the threads,
which address is called ``a``, the stored constants, and which stores
copy an earlier loaded register instead (the data dependencies that
`wmm-d` tracks).  Drawing skeletons from the seed too made one pass's
state count swing by 30% between seeds, which no timing bound can absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KINDS = ("ld", "st", "Commit", "Reconcile")
INSTRS_PER_THREAD = (2, 3)
REGISTER_STORE_SHARE = 0.3  # of stores that have an earlier load in their thread


@dataclass(frozen=True)
class Program:
    name: str
    text: str


@dataclass(frozen=True)
class Shape:
    """How one workload draws its programs."""

    count: int
    thread_counts: tuple[int, ...]   # cycled over the program index
    kind_weights: tuple[int, ...]    # load, store, Commit, Reconcile


def _skeleton(workload: str, k: int, shape: Shape) -> list[list[tuple[str, str]]]:
    rng = random.Random(f"{workload}:skeleton:{k}")
    nthreads = shape.thread_counts[k % len(shape.thread_counts)]
    return [[(rng.choices(KINDS, shape.kind_weights)[0], rng.choice("ab"))
             for _ in range(rng.choice(INSTRS_PER_THREAD))]
            for _ in range(nthreads)]


def generate(workload: str, shape: Shape, seed: int) -> list[Program]:
    return [_program(workload, k, shape, seed) for k in range(shape.count)]


def _program(workload: str, k: int, shape: Shape, seed: int) -> Program:
    rng = random.Random(f"{workload}:{seed}:{k}")
    threads = _skeleton(workload, k, shape)
    rng.shuffle(threads)
    rename = dict(zip("ab", rng.sample("ab", 2)))
    constants = iter(rng.sample(range(1, 100), sum(map(len, threads))))

    mem = {"a": 0, "b": 0}      # the in-order run behind `check allowed`
    regs: dict[str, int] = {}
    load_addr: dict[str, str] = {}
    stores: list[tuple[str, object]] = []
    name = f"{workload}-s{seed}-{k}"
    lines = ["i2e-litmus v1", f"name: {name}", "init:", "  a = 0", "  b = 0"]
    for t, instrs in enumerate(threads, start=1):
        lines.append(f"thread P{t}:")
        loaded: list[str] = []
        for kind, addr in instrs:
            addr = rename[addr]
            if kind == "ld":
                reg = f"r{len(regs) + 1}"
                regs[reg] = mem[addr]
                load_addr[reg] = addr
                loaded.append(reg)
                lines.append(f"  {reg} = Ld {addr}")
            elif kind == "st":
                if loaded and rng.random() < REGISTER_STORE_SHARE:
                    src = rng.choice(loaded)
                    mem[addr] = regs[src]
                else:
                    src = next(constants)
                    mem[addr] = src
                stores.append((addr, src))
                lines.append(f"  St {addr} {src}")
            else:
                lines.append(f"  {kind}")

    final = [f"{reg} = {value}" for reg, value in regs.items()]
    final += [f"m[{loc}] = {value}" for loc, value in sorted(mem.items())]
    lines.append("check allowed: " + " & ".join(final))
    # Values flow only from init (0) and stored constants, through loads
    # and register stores; anything else came out of thin air.
    values = {"a": {0}, "b": {0}}
    changed = True
    while changed:
        changed = False
        for addr, src in stores:
            new = values[load_addr[src]] if isinstance(src, str) else {src}
            if not new <= values[addr]:
                values[addr] |= new
                changed = True
    held = [(reg, values[addr]) for reg, addr in load_addr.items()]
    held += [(f"m[{loc}]", values[loc]) for loc in ("a", "b")]
    lines.append("check forbidden: " + " | ".join(
        "!(" + " | ".join(f"{x} = {v}" for v in sorted(vals)) + ")" for x, vals in held))
    return Program(name=name, text="\n".join(lines) + "\n")
