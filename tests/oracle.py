"""Reference paths that the library's reduced or optimised paths are
checked against.

`interleaving_outcomes` is buffer-free reference semantics: direct
recursive interleaving, used as an independent oracle for the SC engine.
It interprets the surface instructions straight off the parsed test - no
decoded instructions, no rule catalog, no explorer - enumerating every
interleaving of atomic instruction executions with memoization.

`wmm_s_per_holder_instances` is the unreduced WMM-S enumeration, which
offers DeqSb and Copy once per processor holding a copy of the tag.
"""

from __future__ import annotations

from i2e_litmus import isa
from i2e_litmus.litmus import (Assign, Branch, BoundTest, Exit, Fence, Load,
                               Outcome, Store)
from i2e_litmus.models import RuleInstance
from i2e_litmus.models.wmm_s import WmmSModel, no_cycle


def wmm_s_per_holder_instances(model: WmmSModel, state) -> list:
    """Every WMM-S rule instance, with DeqSb and Copy once per holder."""
    out = []
    for i in range(model.nprocs):
        out.extend(model._instruction_instances(state, i))
    for i, proc in enumerate(state.procs):
        for a in isa.sb_addrs(proc.sb):
            if model._committable(state, a, isa.sb_oldest(proc.sb, a)):
                out.append(RuleInstance(model.DEQ_RULE, i, (a,)))
    for i, proc in enumerate(state.procs):
        for a, v, tag in proc.sb:
            for j in range(model.nprocs):
                if no_cycle(state, a, tag, j):
                    out.append(RuleInstance(model.COPY_RULE, i, (a, tag, j)))
    return out


def interleaving_outcomes(bound: BoundTest) -> frozenset[Outcome]:
    amap = bound.amap()
    threads = [th.instrs for th in bound.test.threads]
    names = [th.name for th in bound.test.threads]
    init_mem = {amap[name]: 0 for name in amap}
    for name, value in bound.test.init:
        init_mem[amap[name]] = value
    observed = bound.observed
    locations = sorted(amap)

    def finished(instrs, pc):
        return pc >= len(instrs) or isinstance(instrs[pc], Exit)

    def outcome_of(regs, mem):
        robs = tuple(((t, r), regs[names.index(t)].get(r, 0)) for t, r in observed)
        mobs = tuple((name, mem[amap[name]]) for name in locations)
        return Outcome(robs, mobs)

    def step(i, pcs, regs, mem):
        instrs = threads[i]
        pc = pcs[i]
        ins = instrs[pc]
        my = dict(regs[i])
        mem2 = mem
        getreg = lambda r: my.get(r, 0)
        if isinstance(ins, Assign):
            my[ins.dst] = ins.expr.evaluate(getreg, amap)
            pc += 1
        elif isinstance(ins, Load):
            my[ins.dst] = mem.get(ins.addr.evaluate(getreg, amap), 0)
            pc += 1
        elif isinstance(ins, Store):
            mem2 = dict(mem)
            mem2[ins.addr.evaluate(getreg, amap)] = ins.value.evaluate(getreg, amap)
            pc += 1
        elif isinstance(ins, Fence):
            pc += 1
        elif isinstance(ins, Branch):
            taken = (my.get(ins.reg, 0) == 0) == (ins.cond == "eqz")
            pc = ins.target_index if taken else pc + 1
        else:
            raise AssertionError(f"unexpected instruction {ins!r}")
        pcs2 = pcs[:i] + (pc,) + pcs[i + 1:]
        regs2 = regs[:i] + (my,) + regs[i + 1:]
        return pcs2, regs2, mem2

    memo: dict = {}

    def go(pcs, regs, mem) -> frozenset[Outcome]:
        key = (pcs,
               tuple(tuple(sorted(r.items())) for r in regs),
               tuple(sorted(mem.items())))
        hit = memo.get(key)
        if hit is not None:
            return hit
        runnable = [i for i in range(len(threads)) if not finished(threads[i], pcs[i])]
        if not runnable:
            result = frozenset([outcome_of(regs, mem)])
        else:
            result = frozenset().union(*(go(*step(i, pcs, regs, mem))
                                         for i in runnable))
        memo[key] = result
        return result

    return go(tuple(0 for _ in threads),
              tuple({} for _ in threads),
              init_mem)
