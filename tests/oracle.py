"""Reference paths that the library's reduced or optimised paths are
checked against.

`interleaving_outcomes` is buffer-free reference semantics: direct
recursive interleaving, used as an independent oracle for SC, which
runs the rule catalog the other models share.  It interprets the
surface instructions straight off the parsed test - no decoded
instructions, no rule catalog, no explorer - enumerating every
interleaving of atomic instruction executions with memoization.
`buffered_outcomes` does the same with an explicit store buffer per
thread and dequeues interleaved with the instructions, as the
independent oracle for TSO and PSO.  Neither uses anything from
`models/`.

`interpreted_decode` is the decoder that walks the surface instruction
and its expression trees on every call, against which the compiled
per-pc tables of `isa.compile_thread` are checked.  It uses nothing from
`models/`.

`wmm_s_per_holder_expansion` is the unreduced WMM-S expansion, which
fires DeqSb and Copy once per processor holding a copy of the tag,
rather than from the store's owner alone as `expand` does.  Its DeqSb
and Copy are its own transcriptions of the paper's rules, and its Copy
guard is `no_cycle`, which builds the whole partial coherence order of
the address, copy included, and searches it for a cycle: the reference
for the library's reachability guard.

`build` is `build_model` with one more id, TIMESTAMPED, for the
timestamped WMM-D machine (`timestamped`), which `build_model` picks
only where a load's address reads a register.

`cold_expansion` is `expand` with the per-thread step and drain memos
emptied first, so every processor's steps and DeqSb drains are computed
afresh from the state: the unmemoized reference that memoized
expansions are checked against.

`every_step` switches off the one-step persistent set of `wmm.py`, on
any of the six models: `expand` then offers every processor's steps and
the background rules in every state, as the paper's rule tables do.
The hand-built rule-table tests run on it.  `sb_oldest` reads a store
buffer's oldest entry for an address, which the library never needs
apart from removing it.

`unreduced` turns a `wmm`, `wmm-d` or `wmm-s` model back into the
paper's machine: no step is fired eagerly (`every_step`), and every
address counts as live at every pc, so DeqSb inserts each overwritten
value (with its [tsL, tsU] interval under `wmm-d`) into every processor
without a pending store to the address, and no stale value is dropped
when a pc advances.  On `wmm-d` it returns the timestamped machine
(`TimestampedWmmDModel`) of the model's test, whichever machine the
model is, so it is the reference for both.  On `wmm-s` it also offers
Copy into every processor, whatever its next instruction (`_next_load`
answers ANY_ADDRESS), guards it with the whole-graph `no_cycle`, fires
it as the paper's Copy alone (`paper_copy`), with no load fused to it,
has St append to the buffer as the paper's does, tagging the store by a
rule of its own (`paper_store_entry`: k one past the largest the storing
buffer holds, where the library takes the smallest free one), and keys
states by `age_ordered_key`: each store buffer in its global age order,
tags renamed by first appearance.  That key tells apart two buffers that
differ only in the order between addresses, which the library's states
(each buffer kept in address order) merge.  It empties the memos that
were filled from the reduced liveness tables, Copy guard, enqueue and
tags, so a model that has already explored may be turned back too.
`split_copy_loads` turns a witness of the library's `wmm-s`, whose Copy
also fires the target's load, into one of the unreduced machine, and
`address_ordered` puts a state of the paper's machine into the library's
address-ordered form.

`check_invariants(model, state)` raises AssertionError where a state
breaks a structural invariant of its model: an address both buffered and
stale in one processor, or a stale value its processor can no longer
load; under the timestamped `wmm-d`, a timestamp past the clock or an
inverted [tsL, tsU]; under `wmm-s`, a tag that is no (thread, pc, k), is
repeated in a buffer or outlives its owner's entry, or a cycle in the
partial coherence order (`acyclic`).  `explore_complete` is `explore`
under a 100,000-state budget unless its caller passes limits, and
requires the search to complete, so that a search that does not end
fails fast; `explore_audited` is `explore_complete` that also calls an
audit on every rule firing.
"""

from __future__ import annotations

from typing import Callable, Optional

from i2e_litmus import isa
from i2e_litmus.explorer import ExploreLimits, ExploreResult, explore
from i2e_litmus.litmus import (Assign, Branch, BoundTest, Exit, Fence, Load,
                               Outcome, Store, bind)
from i2e_litmus.models import RuleInstance, build_model
from i2e_litmus.models.wmm import ANY_ADDRESS, WmmModel
from i2e_litmus.models.wmm_d import TimestampedWmmDModel, WmmDModel
from i2e_litmus.models.wmm_s import WmmSModel


TIMESTAMPED = "wmm-d-timestamped"


def timestamped(test) -> TimestampedWmmDModel:
    """The timestamped WMM-D machine of test, whatever its load addresses."""
    return TimestampedWmmDModel(test if isinstance(test, BoundTest) else bind(test))


def build(model_id: str, test) -> WmmModel:
    """`build_model(model_id, test)`, or for TIMESTAMPED `timestamped(test)`."""
    return timestamped(test) if model_id == TIMESTAMPED else build_model(model_id, test)


def explore_complete(model: WmmModel, limits: Optional[ExploreLimits] = None, *args,
                     **kwargs) -> ExploreResult:
    """`explore(model, limits, ...)` under limits, else a 100,000-state
    budget, asserting that the search completes."""
    result = explore(model, limits or ExploreLimits(max_states=100_000), *args, **kwargs)
    assert result.complete, f"search cut short after {result.stats.visited} states"
    return result


def explore_audited(model: WmmModel, limits: Optional[ExploreLimits] = None, *args,
                    audit: Callable, **kwargs) -> ExploreResult:
    """`explore_complete(model, limits, ...)` that calls audit(state, rule,
    successor) for every rule firing, edges into already-visited states
    included.  For this one call an instance attribute shadows
    `model.expand`, so an audit that expands through model is audited
    too."""
    expand = model.expand

    def audited(state):
        for rule, nxt in expand(state):
            audit(state, rule, nxt)
            yield rule, nxt

    model.expand = audited
    try:
        return explore_complete(model, limits, *args, **kwargs)
    finally:
        del model.expand


def check_invariants(model: WmmModel, state) -> None:
    """Raise AssertionError if state breaks a structural invariant of model
    (see the module docstring)."""
    for i, proc in enumerate(state.procs):
        overlap = {e[0] for e in proc.sb} & {e[0] for e in proc.ib}
        assert not overlap, f"store buffer and invalidation buffer share addresses {overlap}"
        live = model.stale_live[i][proc.pc]
        dead = {e[0] for e in proc.ib if e[0] not in live}
        assert not dead, f"{model.thread_names[i]} keeps dead stale values for {dead}"
    if isinstance(model, TimestampedWmmDModel):
        bound = state.gts + 1
        for _, (_, _, sts, mts) in state.m:
            assert sts <= bound and mts <= bound, "memory stamp later than gts + 1"
        for proc in state.procs:
            assert proc.rts <= state.gts, "Reconcile time ahead of the clock"
            for _, (_, ts) in proc.regs:
                assert ts <= bound, "register stamp later than gts + 1"
            for _, _, sts in proc.sb:
                assert sts <= bound, "store stamp later than gts + 1"
            for _, _, ts_lower, ts_upper in proc.ib:
                assert ts_lower <= ts_upper, "ib interval inverted"
                assert ts_upper <= state.gts, "ib interval ends after the clock"
    if isinstance(model, WmmSModel):
        held = [{e[2] for e in proc.sb} for proc in state.procs]
        for proc, tags in zip(state.procs, held):
            assert len(tags) == len(proc.sb), "tag repeated in one buffer"
            for tag in tags:
                assert (type(tag) is tuple and len(tag) == 3
                        and tag[0] in range(model.nprocs)), f"{tag!r} is no (thread, pc, k) tag"
                assert tag in held[tag[0]], "a copy outlived its owner's entry"
        for a in {e[0] for proc in state.procs for e in proc.sb}:
            assert acyclic(tag_lists(state, a)), f"coherence cycle among stores to {a}"


def unreduced(model: WmmModel) -> WmmModel:
    """The same model with no step fired eagerly and every stale value
    kept (the paper's DeqSb), on `wmm-d` the timestamped machine, and on
    `wmm-s` with the paper's Copy, into every processor,
    guarded by `no_cycle` and with no load fused to it, and store buffers
    appended to, tagged by `paper_store_entry` and keyed in their global
    age order."""
    if isinstance(model, WmmDModel):
        model = TimestampedWmmDModel(model.bound)
    model.stale_live = tuple((ANY_ADDRESS,) * (len(instrs) + 1) for instrs in model.programs)
    every_step(model)
    if isinstance(model, WmmSModel):
        model._next_load = lambda i, proc: ANY_ADDRESS
        model._copy_load = paper_copy
        model._enqueue = isa.sb_enq
        model._store_entry = paper_store_entry
        model._copy_keeps_order = no_cycle
        model.canonical_key = age_ordered_key
    return model


def every_step(model: WmmModel) -> WmmModel:
    """The same model with no step fired eagerly: `expand` offers every
    processor's steps and the background rules in every state, the
    machine before the one-step persistent set (see `wmm.py`)."""
    model._local_kinds = ()
    forget_steps(model)
    return model


def forget_steps(model: WmmModel) -> None:
    """Empty model's per-thread step and drain memos."""
    for memo in model._steps + model._drains:
        memo.clear()


def cold_expansion(model: WmmModel, state) -> list:
    """Every rule instance of state with its successor, each processor's
    steps and drains computed afresh rather than read from the memos."""
    forget_steps(model)
    return list(model.expand(state))


def paper_copy(state, entry: tuple, j: int):
    """state after the paper's WMM-S Copy of the tagged store entry into
    processor j: the entry becomes j's youngest store, and j's stale
    values for its address are purged."""
    a = entry[0]
    proc = state.procs[j]
    proc = proc._replace(sb=proc.sb + (entry,), ib=tuple(e for e in proc.ib if e[0] != a))
    return state._replace(procs=state.procs[:j] + (proc,) + state.procs[j + 1:])


def paper_store_entry(i: int, proc, sources: tuple, dins) -> tuple:
    """The entry of processor i's store, tagged (i, pc, k) with k one past
    the largest that i's buffer holds for (i, pc).  The storing thread's
    own entry outlives every copy of it, so no buffer holds that tag."""
    ks = [tag[2] for _, _, tag in proc.sb if tag[:2] == (i, proc.pc)]
    return dins.a, dins.v, (i, proc.pc, max(ks, default=-1) + 1)


def sb_oldest(sb: tuple, a: int):
    """The oldest entry for address a in store buffer sb, or None."""
    for entry in sb:
        if entry[0] == a:
            return entry
    return None


def tag_lists(state, a: int) -> list[list[tuple]]:
    """Each buffer's tags for address a, oldest first."""
    return [[e[2] for e in proc.sb if e[0] == a] for proc in state.procs]


def no_cycle(lists: list[list[tuple]], tag: tuple, target: int) -> bool:
    """Would copying the tagged store into target keep the paper's partial
    coherence order acyclic?  lists holds every buffer's tags for the
    store's address, oldest first; the order is their union with the copy
    appended to target's, and its whole graph is searched for a cycle."""
    if tag in lists[target]:
        return False  # the copy would order the store before itself
    return acyclic(lists[:target] + [lists[target] + [tag]] + lists[target + 1:])


def acyclic(lists: list[list[tuple]]) -> bool:
    """Whether the union of the orders that lists spell, each oldest first,
    is acyclic: its whole graph is searched for a cycle."""
    edges: dict[tuple, set[tuple]] = {}
    for order in lists:
        for n, older in enumerate(order):
            edges.setdefault(older, set()).update(order[n + 1:])
    marks: dict[tuple, int] = {}  # 1 = on stack, 2 = done
    return all(marks.get(node) == 2 or _visit(node, edges, marks) for node in list(edges))


def _visit(node: tuple, edges: dict, marks: dict) -> bool:
    """Depth first from node: False if it reaches a node still on the stack."""
    marks[node] = 1
    for succ in edges.get(node, ()):
        mark = marks.get(succ)
        if mark == 1 or (mark is None and not _visit(succ, edges, marks)):
            return False
    marks[node] = 2
    return True


def split_copy_loads(witness) -> tuple:
    """A witness with each `wmm-s` Copy step, which also fires the target
    j's load, split into the paper's two steps: the Copy, then j's LdSb,
    which bypasses from the copy.  Other steps, and other models' rules,
    pass through unchanged."""
    steps = []
    for rule in witness:
        steps.append(rule)
        if rule.rule == WmmSModel.COPY_RULE:
            steps.append(RuleInstance(WmmSModel.LDSB_RULE, rule.payload[2]))
    return tuple(steps)


def address_ordered(state):
    """state with each store buffer in address order, each address's
    entries still in their age order."""
    return state._replace(procs=tuple(
        proc._replace(sb=tuple(sorted(proc.sb, key=lambda e: e[0]))) for proc in state.procs))


def age_ordered_key(state) -> tuple:
    """A WMM-S state key that keeps each store buffer's global age order."""
    rename: dict[tuple, int] = {}
    procs = []
    for proc in state.procs:
        sb = []
        for a, v, tag in proc.sb:
            n = rename.setdefault(tag, len(rename))
            sb.append((a, v, n))
        procs.append((proc.regs, proc.pc, tuple(sb), proc.ib))
    return (state.m, tuple(procs))


def wmm_s_per_holder_expansion(model: WmmSModel, state) -> list:
    """Every WMM-S rule instance with its successor, DeqSb and Copy once
    per holder.  Copy is `paper_copy`, into every processor whose buffer
    would keep the coherence order acyclic.  DeqSb is the paper's rule,
    transcribed here: a holder's oldest store for an address drains once
    every buffer holding it has it as its oldest store for that address;
    memory takes its value, every copy leaves its buffer, and every other
    processor without a pending store to the address gets the overwritten
    value as a stale ib entry (`unreduced` keeps every stale value live,
    so the model inserts the same ones)."""
    out = [(r, nxt) for r, nxt in model.expand(state)
           if r.rule not in (model.DEQ_RULE, model.COPY_RULE)]
    procs = state.procs
    for i, proc in enumerate(procs):
        for a in isa.sb_addrs(proc.sb):
            entry = sb_oldest(proc.sb, a)
            holders = [j for j, other in enumerate(procs) if entry in other.sb]
            if any(sb_oldest(procs[j].sb, a) != entry for j in holders):
                continue
            old = isa.reg_get(state.m, a, 0)
            after = []
            for j, other in enumerate(procs):
                if j in holders:
                    sb = tuple(e for e in other.sb if e != entry)
                    other = other._replace(sb=sb)
                elif not any(e[0] == a for e in other.sb):
                    other = other._replace(ib=other.ib + ((a, old),))
                after.append(other)
            out.append((RuleInstance(model.DEQ_RULE, i, (a,)),
                        state._replace(m=isa.reg_set(state.m, a, entry[1]),
                                       procs=tuple(after))))
    for i, proc in enumerate(procs):
        for entry in proc.sb:
            a, _, tag = entry
            for j in range(model.nprocs):
                if no_cycle(tag_lists(state, a), tag, j):
                    out.append((RuleInstance(model.COPY_RULE, i, (a, tag, j)),
                                paper_copy(state, entry, j)))
    return out


def interpreted_decode(instrs: tuple, proc, amap,
                       timed: bool = False) -> tuple[object, tuple[str, ...]]:
    """The instruction at proc's pc and the registers it read, decoded
    straight from the surface instruction (registers hold ints, or
    (value, timestamp) pairs when `timed`)."""
    pc = proc.pc
    if pc >= len(instrs):
        return isa.HALT, ()
    regs = proc.regs
    if timed:
        getreg = lambda r: isa.reg_get(regs, r, (0, 0))[0]
    else:
        getreg = lambda r: isa.reg_get(regs, r, 0)

    def address(expr):
        a = expr.evaluate(getreg, amap)
        if a < 0:
            raise isa.MachineError(f"computed a negative address ({a})")
        return a

    ins = instrs[pc]
    if isinstance(ins, Assign):
        return isa.Nm(ins.dst, ins.expr.evaluate(getreg, amap), pc + 1), ins.expr.registers()
    if isinstance(ins, Load):
        return isa.Ld(address(ins.addr), ins.dst), ins.addr.registers()
    if isinstance(ins, Store):
        a = address(ins.addr)
        return (isa.St(a, ins.value.evaluate(getreg, amap)),
                ins.addr.registers() + ins.value.registers())
    if isinstance(ins, Fence):
        return (isa.COMMIT if ins.kind == "Commit" else isa.RECONCILE), ()
    if isinstance(ins, Branch):
        taken = (getreg(ins.reg) == 0) == (ins.cond == "eqz")
        return isa.Nm(None, 0, ins.target_index if taken else pc + 1), (ins.reg,)
    if isinstance(ins, Exit):
        return isa.HALT, ()
    raise isa.MachineError(f"cannot decode {ins!r}")


def _surface(bound: BoundTest):
    """What the interleaving oracles read off a bound test: its address
    map, each thread's instructions, the initial memory, whether thread i
    has finished at a pc, and the outcome of final registers and memory."""
    amap = bound.amap()
    threads = [th.instrs for th in bound.test.threads]
    names = [th.name for th in bound.test.threads]
    init_mem = {amap[name]: 0 for name in amap}
    for name, value in bound.test.init:
        init_mem[amap[name]] = value
    locations = sorted(amap)

    def finished(i, pc):
        return pc >= len(threads[i]) or isinstance(threads[i][pc], Exit)

    def outcome_of(regs, mem):
        robs = tuple(((t, r), regs[names.index(t)].get(r, 0)) for t, r in bound.observed)
        mobs = tuple((name, mem[amap[name]]) for name in locations)
        return Outcome(robs, mobs)

    return amap, threads, init_mem, finished, outcome_of


def interleaving_outcomes(bound: BoundTest) -> frozenset[Outcome]:
    amap, threads, init_mem, finished, outcome_of = _surface(bound)

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
        runnable = [i for i in range(len(threads)) if not finished(i, pcs[i])]
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


def buffered_outcomes(bound: BoundTest, per_address: bool) -> frozenset[Outcome]:
    """TSO outcomes, or PSO outcomes with `per_address`: every
    interleaving of the surface instructions and of store-buffer
    dequeues, memoised, with an explicit store buffer per thread.  A
    store enters its thread's buffer; a load bypasses from the youngest
    store to its address there, else reads memory; Commit waits for an
    empty buffer and Reconcile does nothing.  A dequeue writes a buffer's
    oldest store (TSO), or its oldest store for one address (PSO), to
    memory."""
    amap, threads, init_mem, finished, outcome_of = _surface(bound)

    def step(i, pcs, regs, mem, sbs):
        """The state after thread i's instruction, or None while its
        Commit waits."""
        pc = pcs[i]
        ins = threads[i][pc]
        my = dict(regs[i])
        sb = sbs[i]
        getreg = lambda r: my.get(r, 0)
        if isinstance(ins, Assign):
            my[ins.dst] = ins.expr.evaluate(getreg, amap)
            pc += 1
        elif isinstance(ins, Load):
            a = ins.addr.evaluate(getreg, amap)
            own = [v for b, v in sb if b == a]
            my[ins.dst] = own[-1] if own else mem.get(a, 0)
            pc += 1
        elif isinstance(ins, Store):
            sb += ((ins.addr.evaluate(getreg, amap), ins.value.evaluate(getreg, amap)),)
            pc += 1
        elif isinstance(ins, Fence):
            if ins.kind == "Commit" and sb:
                return None
            pc += 1
        elif isinstance(ins, Branch):
            taken = (my.get(ins.reg, 0) == 0) == (ins.cond == "eqz")
            pc = ins.target_index if taken else pc + 1
        else:
            raise AssertionError(f"unexpected instruction {ins!r}")
        return (pcs[:i] + (pc,) + pcs[i + 1:], regs[:i] + (my,) + regs[i + 1:], mem,
                sbs[:i] + (sb,) + sbs[i + 1:])

    def dequeues(pcs, regs, mem, sbs):
        for i, sb in enumerate(sbs):
            oldest: dict[int, int] = {}  # address -> index of its oldest store
            for n, (a, _) in enumerate(sb):
                oldest.setdefault(a, n)
            for n in oldest.values() if per_address else ([0] if sb else []):
                a, v = sb[n]
                yield pcs, regs, {**mem, a: v}, sbs[:i] + (sb[:n] + sb[n + 1:],) + sbs[i + 1:]

    memo: dict = {}

    def go(pcs, regs, mem, sbs) -> frozenset[Outcome]:
        key = (pcs,
               tuple(tuple(sorted(r.items())) for r in regs),
               tuple(sorted(mem.items())),
               sbs)
        hit = memo.get(key)
        if hit is not None:
            return hit
        nexts = [step(i, pcs, regs, mem, sbs)
                 for i in range(len(threads)) if not finished(i, pcs[i])]
        nexts = [n for n in nexts if n is not None] + list(dequeues(pcs, regs, mem, sbs))
        if not nexts:  # every thread finished and every buffer drained
            result = frozenset([outcome_of(regs, mem)])
        else:
            result = frozenset().union(*(go(*n) for n in nexts))
        memo[key] = result
        return result

    return go(tuple(0 for _ in threads),
              tuple({} for _ in threads),
              init_mem,
              tuple(() for _ in threads))
