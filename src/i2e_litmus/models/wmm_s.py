"""WMM-S: tagged stores and a background copy rule.

Stores become visible to different processors at different times here:
a background rule may copy a buffered store into another processor's
store buffer, and every copy shares the store's tag, one past the
largest tag any buffer held when the store executed.  A tag need only
be unique among buffered entries, because DeqSb removes every copy at
once, and the state key renames tags anyway.  The per-address orders
of all store buffers, glued together by tags, must stay a strict
partial order (the partial coherence order); `no_cycle` rejects any
copy that would close a cycle, which also covers copying into a buffer
that already holds the tag.

Writing a store to memory requires every copy to be the oldest store
for its address in its buffer; the write then removes all copies at
once.  Processors that held a copy skip the stale-value insert - they
were already reading the store - as do processors that can no longer
load the address (see `wmm.liveness`).  Commit keeps its local
definition but now implicitly waits on every buffer holding a copy,
which is what makes it cumulative.

Because every copy of a tag is the same store, DeqSb is offered once
per tag and Copy once per (tag, target), with the lowest-index holder
as the instance's `proc`; firing either rule from another holder would
produce exactly the same successor.

DeqSb reads WMM's per-thread drain memo (see `wmm.py`), whose WMM-S
entry adds, per ProcState, its oldest entries' successors by tag and
the set of tags its buffer holds.  A tag drains iff every processor
holding it has it among its oldest entries; its holders are exactly
those processors, each taking its memoized successor; and the
lowest-index one fires, the first to list the tag among its drains.
The entry also keeps the address the processor's next instruction
loads (`_next_load`), which reads only its pc and registers.

A copy into processor j is observed only by a load of j that bypasses
from it; until then it only holds guards back.  So Copy is offered only
into a processor whose next instruction, decoded against its registers
(a computed address included), loads the store's address
(`_next_load`).  No outcome is lost.  The reduced machine only
declines some Copy firings, so each of its runs is a run of the full
machine.  Conversely, take a run of the full machine and change its
copies into each processor j: drop a copy that no load of j bypasses
from, and move every other one to just before the first load of j that
bypasses from it, where j's pc sits at that load.  Every other rule
fires as before, and the outcome is the same:

* Between the copy and that load, j gains no entry for the address: it
  would be younger, could not drain first, and the load would bypass
  from it instead.  So each buffer's per-address list in the changed
  run is a subsequence, in order, of the original one, with a moved
  copy still the youngest entry.  Hence `no_cycle` holds (its orders
  are a subset of an acyclic one), as do DeqSb's every-copy-oldest
  guard and Commit's empty-buffer test, and LdSb and LdMem pick the
  same source.  Copies never change which tags are buffered, so St
  mints the same tags.
* Without the copy's ib purge and the holder's skipped insert, j's ib
  holds extra stale values for the address, all older than the ones of
  the original run: while j holds an entry for an address, its loads of
  it bypass.  LdIb reads past them with a higher index, and `ib_take`,
  LdMem, St and Reconcile remove them as before.
* Memory, the DeqSb order and every loaded value are unchanged.

The state key keeps each store buffer's order per address but not the
order between addresses.  No rule reads the latter: DeqSb writes the
oldest store for an address, LdSb bypasses from the youngest, Copy
appends behind the target's stores to the address and `no_cycle`
compares per-address tag lists, and Commit and termination only ask
whether a buffer is empty.  Two states whose buffers differ only in how
stores to different addresses interleave therefore have the same
successors up to that order, and the search merges them; the test suite
keeps the age-ordered key as a reference.
"""

from __future__ import annotations

from operator import itemgetter

from .. import isa
from .base import MachineState, RuleInstance
from .wmm import WmmModel

_address = itemgetter(0)  # of a store-buffer entry


def no_cycle(state: MachineState, a: int, tag: int, target: int) -> bool:
    """Would copying the tagged store for a into target keep the
    per-address coherence order acyclic?"""
    return _copy_keeps_order(_tag_lists(state, a), tag, target)


def _tag_lists(state: MachineState, a: int) -> list[list[int]]:
    """Each buffer's tags for address a, oldest first."""
    return [[e[2] for e in proc.sb if e[0] == a] for proc in state.procs]


def _copy_keeps_order(lists: list[list[int]], tag: int, target: int) -> bool:
    if tag in lists[target]:
        return False  # the copy would order the store before itself
    return _acyclic(lists[:target] + [lists[target] + [tag]] + lists[target + 1:])


def _acyclic(lists: list[list[int]]) -> bool:
    edges: dict[int, set[int]] = {}
    for order in lists:
        for n, older in enumerate(order):
            edges.setdefault(older, set()).update(order[n + 1:])
    marks: dict[int, int] = {}  # 1 = on stack, 2 = done
    return all(marks.get(node) == 2 or _visit(node, edges, marks) for node in list(edges))


def _visit(node: int, edges: dict, marks: dict) -> bool:
    """Depth first from node: False if it reaches a node still on the stack."""
    marks[node] = 1
    for succ in edges.get(node, ()):
        mark = marks.get(succ)
        if mark == 1 or (mark is None and not _visit(succ, edges, marks)):
            return False
    marks[node] = 2
    return True


class WmmSModel(WmmModel):
    model_id = "wmm-s"

    # Loads, fences, and Nm keep the WMM rules; St and DeqSb are replaced
    # and the background Copy rule is added.
    ST_RULE = "WMM-S-St"
    DEQ_RULE = "WMM-S-DeqSb"
    COPY_RULE = "WMM-S-Copy"

    def _background(self, state: MachineState):
        """DeqSb once per tag, then Copy once per (tag, target), each fired
        by the tag's lowest-index holder."""
        procs = state.procs
        for proc in procs:
            if proc.sb:
                break
        else:
            return  # nothing buffered: nothing to drain or copy
        drains = [self._drains_of(i, proc) for i, proc in enumerate(procs)]
        seen = set()
        for i, (steps, _, _, _) in enumerate(drains):
            for rule, entry, _ in steps:
                tag = entry[2]
                if tag in seen:
                    continue
                seen.add(tag)
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
        seen = set()
        for i, proc in enumerate(procs):
            for entry in proc.sb:
                a, _, tag = entry
                if tag in seen:
                    continue
                seen.add(tag)
                targets = [j for j, next_load in enumerate(loads) if a in next_load]
                if not targets:
                    continue
                lists = _tag_lists(state, a)
                for j in targets:
                    if _copy_keeps_order(lists, tag, j):
                        yield (RuleInstance(self.COPY_RULE, i, (a, tag, j)),
                               self._copy(state, entry, j))

    def _drain_steps(self, i: int, proc: isa.ProcState) -> tuple:
        """Processor i's drain memo entry for proc: WMM's drains, its
        oldest entries' successors by tag, the tags its buffer holds, and
        `_next_load`.  Unbuffered processors get one too, for the last."""
        steps = super()._drain_steps(i, proc)
        return (steps, {entry[2]: nxt for _, entry, nxt in steps},
                frozenset([entry[2] for entry in proc.sb]), self._next_load(i, proc))

    def _next_load(self, i: int, proc: isa.ProcState) -> tuple:
        """The address processor i's next instruction loads, decoded
        against its registers, as a one-address tuple; () if it is no load."""
        dins = isa.decode(self.decoded[i], proc)[0]
        return (dins.a,) if type(dins) is isa.Ld else ()

    @staticmethod
    def _copy(state: MachineState, entry: tuple, j: int) -> MachineState:
        """state once the tagged store entry is copied into processor j's
        buffer, which purges j's stale values for its address."""
        target = state.procs[j]
        target = isa.ProcState(target.regs, target.pc, isa.sb_enq(target.sb, entry),
                               isa.ib_rm_addr(target.ib, entry[0]), target.rts)
        procs = state.procs[:j] + (target,) + state.procs[j + 1:]
        return MachineState(state.m, procs, state.gts)

    def _store_entry(self, procs: tuple, i: int, sources: tuple, dins: isa.St) -> tuple:
        """The store, tagged one past the largest tag any buffer holds."""
        tag = 0
        for proc in procs:
            for entry in proc.sb:
                if entry[2] >= tag:
                    tag = entry[2] + 1
        return dins.a, dins.v, tag

    def canonical_key(self, state: MachineState):
        """Each buffer in address order (stable, so each address keeps its
        own age order), with tags renamed by first appearance so that
        allocation history cannot split otherwise-identical states."""
        rename: dict[int, int] = {}
        procs = []
        for proc in state.procs:
            sb = []
            # a buffer of one entry is already in address order
            for a, v, tag in (sorted(proc.sb, key=_address) if len(proc.sb) > 1
                              else proc.sb):
                n = rename.get(tag)
                if n is None:
                    n = rename[tag] = len(rename)
                sb.append((a, v, n))
            procs.append((proc.regs, proc.pc, tuple(sb), proc.ib))
        return (state.m, tuple(procs))

    def check_invariants(self, state: MachineState) -> None:
        super().check_invariants(state)
        addresses = {e[0] for proc in state.procs for e in proc.sb}
        for a in addresses:
            lists = _tag_lists(state, a)
            for order in lists:
                assert len(order) == len(set(order)), "tag repeated in one buffer"
            assert _acyclic(lists), f"coherence cycle among stores to {a}"

    def _describe_payload(self, rule: RuleInstance) -> str:
        if rule.rule == self.COPY_RULE:
            a, tag, j = rule.payload
            return f"{self.addr_name(a)} tag {tag} -> {self.thread_names[j]}"
        return super()._describe_payload(rule)
