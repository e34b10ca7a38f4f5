"""Reference paths that the library's reduced or optimised paths are
checked against.

`interleaving_outcomes` is buffer-free reference semantics: direct
interleaving, used as an independent oracle for SC, which runs the
rule catalog the other models share.  It interprets the surface
instructions straight off the parsed test - no decoded instructions,
no rule catalog, no explorer - enumerating every interleaving of atomic
instruction executions by a worklist search with a visited set
(`_terminal_outcomes`), so it ends on a spin loop too.
`buffered_outcomes` does the same with an explicit store buffer per
thread and dequeues interleaved with the instructions, as the
independent oracle for TSO and PSO.  `wmm_outcomes` adds the paper's
invalidation buffer per thread to its PSO machine, as the independent
oracle for WMM: a transcription of the paper's rules with no liveness,
no timestamps and no WMM-S.  `wmm_d_outcomes` is the same machine with
the paper's WMM-D timestamps, the Reconcile time `rts` included, which
the library leaves out (see `wmm_d.py`): the independent oracle for
both WMM-D machines.  None of the four uses anything from `models/` or
`isa`.

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
any of the six models: no Nm, St, empty-buffer Commit, Reconcile,
unshared load or private drain is fired alone, and `expand` offers
every processor's steps and the background rules in every state, as the
paper's rule tables do.
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
buffer holds, where the library takes the smallest free one).  The
search keys each of its states by itself, as it does the library's, so
it tells apart two buffers that differ only in the order between
addresses, which the library's states (each buffer kept in address
order) merge, and two states that differ only in their tags' k.  It
empties the memos that were filled from the reduced liveness tables,
Copy guard, enqueue and tags, so a model that has already explored may
be turned back too.
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
audit on every rule firing.  `reg_projection` projects an outcome set
onto chosen (thread, register) pairs.
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


def reg_projection(outcomes, *keys) -> set[tuple]:
    """Project outcome sets onto selected (thread, reg) pairs."""
    return {tuple(o.reg(t, r) for t, r in keys) for o in outcomes}


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
    appended to and tagged by `paper_store_entry`."""
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
    return model


def every_step(model: WmmModel) -> WmmModel:
    """The same model with no step fired eagerly (no Nm, St, Commit,
    Reconcile, unshared load or private drain alone): `expand` offers
    every processor's steps and the background rules in every state, the
    machine before the one-step persistent set (see `wmm.py`)."""
    model._local_kinds = ()
    model._local_drains = False
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


def _terminal_outcomes(start, key: Callable, successors: Callable,
                       outcome: Callable) -> frozenset[Outcome]:
    """The outcomes of the states with no successor that are reachable
    from start: a worklist search with a set of visited keys, so that a
    cycle in the state graph (a spin loop) ends it.  key(state) is the
    state's hashable form, successors(state) its successor states, and
    outcome(state) what a terminal state yields."""
    seen = {key(start)}
    work = [start]
    outcomes = set()
    while work:
        state = work.pop()
        nexts = successors(state)
        if not nexts:  # every thread finished and every buffer drained
            outcomes.add(outcome(state))
        for nxt in nexts:
            k = key(nxt)
            if k not in seen:
                seen.add(k)
                work.append(nxt)
    return frozenset(outcomes)


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

    def key(state):
        pcs, regs, mem = state
        return pcs, tuple(tuple(sorted(r.items())) for r in regs), tuple(sorted(mem.items()))

    def successors(state):
        pcs = state[0]
        return [step(i, *state) for i in range(len(threads)) if not finished(i, pcs[i])]

    start = (tuple(0 for _ in threads), tuple({} for _ in threads), init_mem)
    return _terminal_outcomes(start, key, successors, lambda state: outcome_of(*state[1:]))


def buffered_outcomes(bound: BoundTest, per_address: bool,
                      stale: bool = False) -> frozenset[Outcome]:
    """TSO outcomes, or PSO outcomes with `per_address`: every
    interleaving of the surface instructions and of store-buffer
    dequeues, memoised, with an explicit store buffer per thread.  A
    store enters its thread's buffer; a load bypasses from the youngest
    store to its address there, else reads memory; Commit waits for an
    empty buffer and Reconcile does nothing.  A dequeue writes a buffer's
    oldest store (TSO), or its oldest store for one address (PSO), to
    memory.  With `stale`, each thread also has an invalidation buffer
    (`wmm_outcomes`)."""
    amap, threads, init_mem, finished, outcome_of = _surface(bound)

    def steps(i, pcs, regs, mem, sbs, ibs):
        """The states after thread i's instruction: none while its Commit
        waits, one per value a load may read."""
        pc = pcs[i]
        ins = threads[i][pc]
        my = dict(regs[i])
        sb, ib = sbs[i], ibs[i]
        getreg = lambda r: my.get(r, 0)
        reads = None  # a load's (value read, ib left behind) choices
        if isinstance(ins, Assign):
            my[ins.dst] = ins.expr.evaluate(getreg, amap)
            pc += 1
        elif isinstance(ins, Load):
            a = ins.addr.evaluate(getreg, amap)
            own = [v for b, v in sb if b == a]
            if own:
                reads = [(own[-1], ib)]
            else:
                reads = [(mem.get(a, 0), tuple(e for e in ib if e[0] != a))]
                older = []  # positions of a's entries older than the one read
                for n, (b, v) in enumerate(ib):
                    if b == a:
                        reads.append((v, tuple(e for m, e in enumerate(ib) if m not in older)))
                        older.append(n)
            pc += 1
        elif isinstance(ins, Store):
            a = ins.addr.evaluate(getreg, amap)
            sb += ((a, ins.value.evaluate(getreg, amap)),)
            ib = tuple(e for e in ib if e[0] != a)
            pc += 1
        elif isinstance(ins, Fence):
            if ins.kind == "Commit" and sb:
                return []
            if ins.kind == "Reconcile":
                ib = ()
            pc += 1
        elif isinstance(ins, Branch):
            taken = (my.get(ins.reg, 0) == 0) == (ins.cond == "eqz")
            pc = ins.target_index if taken else pc + 1
        else:
            raise AssertionError(f"unexpected instruction {ins!r}")
        pcs = pcs[:i] + (pc,) + pcs[i + 1:]
        sbs = sbs[:i] + (sb,) + sbs[i + 1:]
        return [(pcs, regs[:i] + (mine,) + regs[i + 1:], mem, sbs, ibs[:i] + (left,) + ibs[i + 1:])
                for mine, left in ([(my, ib)] if reads is None
                                   else [({**my, ins.dst: v}, left) for v, left in reads])]

    def dequeues(pcs, regs, mem, sbs, ibs):
        for i, sb in enumerate(sbs):
            oldest: dict[int, int] = {}  # address -> index of its oldest store
            for n, (a, _) in enumerate(sb):
                oldest.setdefault(a, n)
            for n in oldest.values() if per_address else ([0] if sb else []):
                a, v = sb[n]
                offered = ibs
                if stale:  # the overwritten value, to every other thread with no store to a
                    offered = tuple(ib if j == i or any(b == a for b, _ in sbs[j])
                                    else ib + ((a, mem.get(a, 0)),) for j, ib in enumerate(ibs))
                yield (pcs, regs, {**mem, a: v}, sbs[:i] + (sb[:n] + sb[n + 1:],) + sbs[i + 1:],
                       offered)

    def key(state):
        pcs, regs, mem, sbs, ibs = state
        return (pcs, tuple(tuple(sorted(r.items())) for r in regs), tuple(sorted(mem.items())),
                sbs, ibs)

    def successors(state):
        nexts = [n for i in range(len(threads)) if not finished(i, state[0][i])
                 for n in steps(i, *state)]
        return nexts + list(dequeues(*state))

    empty = tuple(() for _ in threads)
    start = (tuple(0 for _ in threads), tuple({} for _ in threads), init_mem, empty, empty)
    return _terminal_outcomes(start, key, successors, lambda state: outcome_of(*state[1:3]))


def wmm_outcomes(bound: BoundTest) -> frozenset[Outcome]:
    """WMM outcomes: PSO's machine (`buffered_outcomes`) plus the paper's
    invalidation buffer per thread, its (address, value) entries in
    insertion order.  A dequeue appends the value it overwrote to the ib
    of every other thread with no pending store to the address.  A store,
    and a load that reads memory, purge their address from their thread's
    ib.  A load with no own store to its address may instead read any ib
    entry for it: the address's older entries go, the one read stays.
    Reconcile clears the ib.  No stale value is dropped for being dead."""
    return buffered_outcomes(bound, per_address=True, stale=True)


def wmm_d_outcomes(bound: BoundTest) -> frozenset[Outcome]:
    """WMM-D outcomes: the paper's WMM-D machine, transcribed from its
    rules with the Reconcile time kept.  `wmm_outcomes`' machine, plus a
    clock gts that each dequeue ticks; registers hold (value, ts) pairs;
    a memory cell is ⟨v, writer, sts, mts⟩, the value, the thread that
    wrote it, the store's creation time and one past the clock of its
    write; a store buffer entry carries its sts; an ib entry carries
    [tsL, tsU], where tsL is the overwritten cell's sts for its writer
    and its mts for every other thread, and tsU is the clock of the
    overwrite.  Each thread keeps rts, which Reconcile sets to gts.  An
    Assign stamps its result, and a store its entry, with the latest
    stamp among the registers they read; a load's is max(ats, rts, vts),
    ats being its address registers' latest stamp and vts the entry's
    sts for a bypass, the cell's sts to its writer and mts to any other
    thread, and tsL for a stale value.  A stale value may be read only
    when ats <= tsU."""
    amap, threads, init_mem, finished, outcome_of = _surface(bound)
    none = (0, None, 0, 0)  # a cell no store has written

    def stamped(expr, my):
        """expr's value, and the latest stamp among the registers it reads."""
        value = expr.evaluate(lambda r: my.get(r, (0, 0))[0], amap)
        return value, max((my.get(r, (0, 0))[1] for r in expr.registers()), default=0)

    def steps(i, pcs, regs, rts, gts, mem, sbs, ibs):
        """The states after thread i's instruction: none while its Commit
        waits, one per value a load may read."""
        pc = pcs[i]
        ins = threads[i][pc]
        my = dict(regs[i])
        sb, ib, rt = sbs[i], ibs[i], rts[i]
        reads = None  # a load's (stamped value, ib left behind) choices
        if isinstance(ins, Assign):
            my[ins.dst] = stamped(ins.expr, my)
            pc += 1
        elif isinstance(ins, Load):
            a, ats = stamped(ins.addr, my)
            own = [(v, sts) for b, v, sts in sb if b == a]
            if own:
                v, sts = own[-1]
                reads = [((v, max(ats, rt, sts)), ib)]
            else:
                v, writer, sts, mts = mem.get(a, none)
                reads = [((v, max(ats, rt, sts if writer == i else mts)),
                          tuple(e for e in ib if e[0] != a))]
                older = []  # positions of a's entries older than the one read
                for n, (b, v, ts_lower, ts_upper) in enumerate(ib):
                    if b == a:
                        if ats <= ts_upper:
                            reads.append(((v, max(ats, rt, ts_lower)),
                                          tuple(e for m, e in enumerate(ib) if m not in older)))
                        older.append(n)
            pc += 1
        elif isinstance(ins, Store):
            (a, ats), (v, vts) = stamped(ins.addr, my), stamped(ins.value, my)
            sb += ((a, v, max(ats, vts)),)
            ib = tuple(e for e in ib if e[0] != a)
            pc += 1
        elif isinstance(ins, Fence):
            if ins.kind == "Commit" and sb:
                return []
            if ins.kind == "Reconcile":
                ib, rt = (), gts
            pc += 1
        elif isinstance(ins, Branch):
            taken = (my.get(ins.reg, (0, 0))[0] == 0) == (ins.cond == "eqz")
            pc = ins.target_index if taken else pc + 1
        else:
            raise AssertionError(f"unexpected instruction {ins!r}")
        pcs = pcs[:i] + (pc,) + pcs[i + 1:]
        sbs = sbs[:i] + (sb,) + sbs[i + 1:]
        rts = rts[:i] + (rt,) + rts[i + 1:]
        return [(pcs, regs[:i] + (mine,) + regs[i + 1:], rts, gts, mem, sbs,
                 ibs[:i] + (left,) + ibs[i + 1:])
                for mine, left in ([(my, ib)] if reads is None
                                   else [({**my, ins.dst: v}, left) for v, left in reads])]

    def dequeues(pcs, regs, rts, gts, mem, sbs, ibs):
        """A buffer's oldest store for one address reaches memory, and
        every other thread with no store to the address pending is offered
        the value it overwrote."""
        for i, sb in enumerate(sbs):
            oldest: dict[int, int] = {}  # address -> index of its oldest store
            for n, (a, _, _) in enumerate(sb):
                oldest.setdefault(a, n)
            for n in oldest.values():
                a, v, sts = sb[n]
                old_v, old_writer, old_sts, old_mts = mem.get(a, none)
                offered = tuple(
                    ib if j == i or any(b == a for b, _, _ in sbs[j])
                    else ib + ((a, old_v, old_sts if j == old_writer else old_mts, gts),)
                    for j, ib in enumerate(ibs))
                yield (pcs, regs, rts, gts + 1, {**mem, a: (v, i, sts, gts + 1)},
                       sbs[:i] + (sb[:n] + sb[n + 1:],) + sbs[i + 1:], offered)

    def key(state):
        pcs, regs, rts, gts, mem, sbs, ibs = state
        return (pcs, tuple(tuple(sorted(r.items())) for r in regs), rts, gts,
                tuple(sorted(mem.items())), sbs, ibs)

    def successors(state):
        nexts = [n for i in range(len(threads)) if not finished(i, state[0][i])
                 for n in steps(i, *state)]
        return nexts + list(dequeues(*state))

    def outcome(state):
        regs, mem = state[1], state[4]
        return outcome_of([{r: v for r, (v, _) in my.items()} for my in regs],
                          {a: cell[0] for a, cell in mem.items()})

    empty = tuple(() for _ in threads)
    zeros = tuple(0 for _ in threads)
    start = (zeros, tuple({} for _ in threads), zeros, 0,
             {a: (v, None, 0, 0) for a, v in init_mem.items()}, empty, empty)
    return _terminal_outcomes(start, key, successors, outcome)
