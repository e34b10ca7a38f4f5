"""WMM-S: tagged stores and a background copy rule.

Stores become visible to different processors at different times here:
a background rule may copy a buffered store into another processor's
store buffer, and every copy shares the store's tag.  The per-address
orders of all store buffers, glued together by tags, must stay a strict
partial order (the partial coherence order); Copy's guard,
`WmmSModel._copy_keeps_order`, rejects any copy that would close a
cycle, which also covers copying into a buffer that already holds the
tag.

Writing a store to memory requires every copy to be the oldest store
for its address in its buffer; the write then removes all copies at
once.  Processors that held a copy skip the stale-value insert - they
were already reading the store - as do processors that can no longer
load the address (see `wmm.liveness`).  Commit keeps its local
definition but now implicitly waits on every buffer holding a copy,
which is what makes it cumulative.

Every copy of a tag is the same store, and the store's owner, the
processor tag[0] that stored it, holds it until every copy has drained
(below).  So DeqSb and Copy fire from the owner, which is the
instance's `proc`: DeqSb once per tag, Copy once per (tag, target).
Firing either rule from another holder would produce exactly the same
successor.

DeqSb reads WMM's per-thread drain memo (see `wmm.py`), whose WMM-S
entry keeps, per ProcState, only the drains of the stores the processor
owns, its oldest entries' successors by tag, and the set of tags its
buffer holds.  A tag drains iff every processor holding it has it among
its oldest entries; its holders are exactly those processors, each
taking its memoized successor.  The entry also keeps the address the
processor's next instruction loads (`_next_load`), which reads only its
pc and registers.

Each state is built in canonical form, so the search keys it by itself:

* A tag names its store: (thread, pc, k), with k the smallest value no
  entry of the storing thread's own buffer carries for that (thread,
  pc); a loop-free thread always gets k = 0.  That k is free in every
  buffer: DeqSb removes every copy at once, so a store's own entry stays
  buffered until every copy has drained.  So St reads only its own
  ProcState, and with Copy's guard no two buffered entries share a tag.
* Each buffer is in address order: St and Copy enqueue an entry behind
  the buffer's last entry for its address (`isa.sb_insert`), keeping
  each address's age order, as does DeqSb's `sb_rm_oldest`.  No rule
  reads the order between addresses: DeqSb writes the oldest store for
  an address, LdSb bypasses from the youngest, Copy enqueues behind the
  target's stores to the address, Copy's guard compares per-address tag
  lists, and Commit and termination ask only whether a buffer is empty.
  So the paper's buffers in any interleaving of their addresses have the
  same rule instances, and successors that differ in the same way.

Renaming tags by first appearance would also merge states that differ
only by a permutation of tags; identity tags keep them apart only where
two stores leave equal (address, value) entries in the same positions,
as two instances of one looped store may.  That only merges less, so
it is sound; the test suite keeps the paper's machine (appended
buffers, tags renamed by first appearance) as a reference.

A copy into processor j is observed only by a load of j that bypasses
from it; until then it only holds guards back.  So Copy fires only
together with that load, as one rule (`_copy_load`): it is offered only
into a processor whose next instruction, decoded against its registers
(a computed address included), loads the store's address
(`_next_load`), and its successor is the state once the copy has
entered j's buffer and j's load has bypassed from it, read from j's
step memo.  The copy stays in j's buffer.  The fused rule keeps the
paper's name, WMM-S-Copy, under which the benchmark counts its
firings, and `describe_rule` shows it as the paper's two steps.

No outcome is lost.  Each firing of the fused rule is the full
machine's Copy followed by j's LdSb, which bypasses from the youngest
entry for the address, the copy; so each run of the reduced machine is
a run of the full machine.  Conversely, take a run of the full machine
and change its copies into each processor j: drop a copy that no load
of j bypasses from, and move every other one to just before the first
load of j that bypasses from it, where j's pc sits at that load.  Every
other rule fires as before, and the outcome is the same:

* Between the copy and that load, j gains no entry for the address: it
  would be younger, could not drain first, and the load would bypass
  from it instead.  So each buffer's per-address list in the changed
  run is a subsequence, in order, of the original one, with a moved
  copy still the youngest entry.  Hence Copy's guard holds (its orders
  are a subset of an acyclic one), as do DeqSb's every-copy-oldest
  guard and Commit's empty-buffer test, and LdSb and LdMem pick the
  same source.  St reads only its own thread's stores, which no moved
  copy is, so it mints the same tags.
* Without the copy's ib purge and the holder's skipped insert, j's ib
  holds extra stale values for the address, all older than the ones of
  the original run: while j holds an entry for an address, its loads of
  it bypass.  LdIb reads past them with a higher index, and `ib_take`,
  LdMem, St and Reconcile remove them as before.
* Memory, the DeqSb order and every loaded value are unchanged.

In the changed run every copy is adjacent to the load it was moved
before, and that load reads exactly the copy: the copy has just become
j's youngest entry for the address, and a load bypasses from the
youngest.  So each Copy and its load are one firing of the fused rule,
and the changed run is a run of the reduced machine.  The states in
which j holds a copy it has not loaded yet are never built, so the
search pays for none of their keys, expansions or dedup lookups.
"""

from __future__ import annotations

from .. import isa
from .base import MachineState, RuleInstance
from .wmm import WmmModel


def _tag_lists(procs: tuple, a: int) -> list[list[tuple]]:
    """Each buffer's tags for address a, oldest first."""
    return [[e[2] for e in proc.sb if e[0] == a] for proc in procs]


def _later(lists: list[list[tuple]], tag: tuple) -> set:
    """The tags that follow tag in the order the lists spell: those reached
    from it through each list's next entry."""
    later = set()
    walk = [tag]
    for t in walk:
        for order in lists:
            if t in order:
                n = order.index(t) + 1
                if n < len(order) and order[n] not in later:
                    later.add(order[n])
                    walk.append(order[n])
    return later


class WmmSModel(WmmModel):
    model_id = "wmm-s"

    # Loads, fences, and Nm keep the WMM rules; St and DeqSb are replaced
    # and the background Copy rule is added, fused with the load that
    # bypasses from the copy.
    ST_RULE = "WMM-S-St"
    DEQ_RULE = "WMM-S-DeqSb"
    COPY_RULE = "WMM-S-Copy"

    _enqueue = staticmethod(isa.sb_insert)  # buffers stay in address order

    @staticmethod
    def _copy_keeps_order(lists: list[list[tuple]], tag: tuple, target: int) -> bool:
        """Whether copying the tagged store into processor target keeps the
        order of the per-address tag lists acyclic.  The order is acyclic
        before the copy: St adds a fresh tag behind its buffer's entries for
        the address, DeqSb only removes, and every Copy passes this guard.
        The copy becomes target's youngest entry for the address, adding only
        the edges from target's entries to tag, so it closes a cycle iff tag
        already is one of target's entries or already precedes one."""
        own = lists[target]
        return not own or (tag not in own and _later(lists, tag).isdisjoint(own))

    def _background(self, state: MachineState):
        """DeqSb once per tag, then Copy (with the target's load) once per
        (tag, target), each fired by the store's owner, tag[0]."""
        procs = state.procs
        for proc in procs:
            if proc.sb:
                break
        else:
            return  # nothing buffered: nothing to drain or copy
        drains = [self._drains_of(i, proc) for i, proc in enumerate(procs)]
        for i, (owned, _, _, _) in enumerate(drains):
            for rule, entry, _ in owned:
                tag = entry[2]
                # every copy of the tag must be the oldest store for its
                # address in its buffer, and every copy leaves at once
                holders = {}
                for j, (_, oldest, tags, _) in enumerate(drains):
                    if tag in tags:
                        nxt = oldest.get(tag)
                        if nxt is None:
                            break
                        holders[j] = nxt
                else:
                    yield rule, self._dequeue(state, i, entry, holders)
        loads = [drain[3] for drain in drains]
        if not any(loads):
            return  # no processor is about to load
        for i, proc in enumerate(procs):
            for entry in proc.sb:
                a, _, tag = entry
                if tag[0] != i:
                    continue  # a copy: its owner fires it
                targets = [j for j, next_load in enumerate(loads) if a in next_load]
                if not targets:
                    continue
                lists = _tag_lists(procs, a)
                for j in targets:
                    if self._copy_keeps_order(lists, tag, j):
                        yield (RuleInstance(self.COPY_RULE, i, (a, tag, j)),
                               self._copy_load(state, entry, j))

    def _drain_steps(self, i: int, proc: isa.ProcState) -> tuple:
        """Processor i's drain memo entry for proc: WMM's drains of the
        stores i owns, its oldest entries' successors by tag, the tags its
        buffer holds, and `_next_load`.  Unbuffered processors get one too,
        for the last."""
        steps = super()._drain_steps(i, proc)
        return (tuple((rule, entry, nxt) for rule, entry, nxt in steps if entry[2][0] == i),
                {entry[2]: nxt for _, entry, nxt in steps},
                frozenset([entry[2] for entry in proc.sb]), self._next_load(i, proc))

    def _next_load(self, i: int, proc: isa.ProcState) -> tuple:
        """The address processor i's next instruction loads, decoded
        against its registers, as a one-address tuple; () if it is no load."""
        dins = isa.decode(self.decoded[i], proc)[0]
        return (dins.a,) if type(dins) is isa.Ld else ()

    def _copy_load(self, state: MachineState, entry: tuple, j: int) -> MachineState:
        """state once the tagged store entry is copied into processor j's
        buffer, which purges j's stale values for its address, and j's next
        instruction, a load of that address, has bypassed from the copy:
        j's WMM-LdSb, read from j's step memo."""
        target = state.procs[j]
        target = isa.ProcState(target.regs, target.pc, self._enqueue(target.sb, entry),
                               target.ib and isa.ib_rm_addr(target.ib, entry[0]), target.rts)
        memo = self._steps[j]
        steps = memo.get(target)
        if steps is None:
            steps = memo[target] = self._proc_steps(j, target)
        (_, loaded), = steps  # the copy is j's youngest entry for the address
        return MachineState(state.m, state.procs[:j] + (loaded,) + state.procs[j + 1:],
                            state.gts)

    def _store_entry(self, i: int, proc: isa.ProcState, sources: tuple, dins: isa.St) -> tuple:
        """The store, tagged (i, pc, k) with the smallest k that no entry of
        i's buffer carries for (i, pc)."""
        taken = {tag[2] for _, _, tag in proc.sb if tag[:2] == (i, proc.pc)}
        return dins.a, dins.v, (i, proc.pc, min(set(range(len(taken) + 1)) - taken))

    def check_invariants(self, state: MachineState) -> None:
        super().check_invariants(state)
        held = [{e[2] for e in proc.sb} for proc in state.procs]
        for proc, tags in zip(state.procs, held):
            assert len(tags) == len(proc.sb), "tag repeated in one buffer"
            for tag in tags:
                assert (type(tag) is tuple and len(tag) == 3
                        and tag[0] in range(self.nprocs)), f"{tag!r} is no (thread, pc, k) tag"
                assert tag in held[tag[0]], "a copy outlived its owner's entry"
        for a in {e[0] for proc in state.procs for e in proc.sb}:
            lists = _tag_lists(state.procs, a)
            for tag in {tag for order in lists for tag in order}:
                assert tag not in _later(lists, tag), f"coherence cycle among stores to {a}"

    def _describe_payload(self, rule: RuleInstance) -> str:
        if rule.rule == self.COPY_RULE:
            a, (owner, pc, k), j = rule.payload
            origin = f"{self.thread_names[owner]} pc {pc}" + (f" #{k}" if k else "")
            target = self.thread_names[j]
            return f"{self.addr_name(a)} ({origin}) -> {target}, then {target} LdSb"
        return super()._describe_payload(rule)
