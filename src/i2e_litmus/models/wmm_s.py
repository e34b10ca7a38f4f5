"""WMM-S: tagged stores and a background copy rule.

Stores become visible to different processors at different times here:
a background rule may copy a buffered store into another processor's
store buffer, and every copy shares the tag minted when the store
executed.  The per-address orders of all store buffers, glued together
by tags, must stay a strict partial order (the partial coherence
order); `no_cycle` rejects any copy that would close a cycle, which
also covers copying into a buffer that already holds the tag.

Writing a store to memory requires every copy to be the oldest store
for its address in its buffer; the write then removes all copies at
once.  Processors that held a copy skip the stale-value insert - they
were already reading the store.  Commit keeps its local definition but
now implicitly waits on every buffer holding a copy, which is what
makes it cumulative.

Because every copy of a tag is the same store, DeqSb is offered once
per tag and Copy once per (tag, target), with the lowest-index holder
as the instance's `proc`; firing either rule from another holder would
produce exactly the same successor.
"""

from __future__ import annotations

from .. import isa
from .base import MachineState, RuleInstance, mem_get, mem_set
from .wmm import WmmModel


def no_cycle(state: MachineState, a: int, tag: int, target: int) -> bool:
    """Would copying the tagged store for a into target keep the
    per-address coherence order acyclic?"""
    lists = [[e[2] for e in proc.sb if e[0] == a] for proc in state.procs]
    if tag in lists[target]:
        return False  # the copy would order the store before itself
    lists[target].append(tag)
    return _acyclic(lists)


def _acyclic(lists: list[list[int]]) -> bool:
    edges: dict[int, set[int]] = {}
    for order in lists:
        for n, older in enumerate(order):
            edges.setdefault(older, set()).update(order[n + 1:])
    state: dict[int, int] = {}  # 1 = on stack, 2 = done

    def visit(node: int) -> bool:
        state[node] = 1
        for succ in edges.get(node, ()):
            mark = state.get(succ)
            if mark == 1 or (mark is None and not visit(succ)):
                return False
        state[node] = 2
        return True

    return all(state.get(node) == 2 or visit(node) for node in list(edges))


class WmmSModel(WmmModel):
    model_id = "wmm-s"

    # Loads, fences, and Nm keep the WMM rules; St and DeqSb are replaced
    # and the background Copy rule is added.
    ST_RULE = "WMM-S-St"
    DEQ_RULE = "WMM-S-DeqSb"
    COPY_RULE = "WMM-S-Copy"

    def enabled(self, state: MachineState) -> list[RuleInstance]:
        out = super().enabled(state)
        seen = set()
        for i, proc in enumerate(state.procs):
            for a, v, tag in proc.sb:
                if tag in seen:
                    continue
                seen.add(tag)
                for j in range(self.nprocs):
                    if no_cycle(state, a, tag, j):
                        out.append(RuleInstance(self.COPY_RULE, i, (a, tag, j)))
        return out

    def _background_instances(self, state: MachineState) -> list[RuleInstance]:
        out = []
        seen = set()
        for i, proc in enumerate(state.procs):
            for a in isa.sb_addrs(proc.sb):
                entry = isa.sb_oldest(proc.sb, a)
                if entry[2] in seen:
                    continue
                seen.add(entry[2])
                if self._committable(state, a, entry):
                    out.append(RuleInstance(self.DEQ_RULE, i, (a,)))
        return out

    @staticmethod
    def _committable(state: MachineState, a: int, entry: tuple) -> bool:
        """Every copy of the tag must be the oldest store for a in its buffer."""
        tag = entry[2]
        return all(not isa.sb_has_tag(proc.sb, tag)
                   or isa.sb_oldest(proc.sb, a) == entry
                   for proc in state.procs)

    def _store_entry(self, state: MachineState, dins: isa.St) -> tuple:
        return (dins.a, dins.v, state.next_tag)

    def _finish_store(self, state: MachineState, i: int, proc) -> MachineState:
        procs = state.procs[:i] + (proc,) + state.procs[i + 1:]
        return MachineState(state.m, procs, state.gts, state.next_tag + 1)

    def apply(self, state: MachineState, rule: RuleInstance) -> MachineState:
        if rule.rule == self.COPY_RULE:
            a, tag, j = rule.payload
            entry = next(e for e in state.procs[rule.proc].sb if e[2] == tag)
            target = state.procs[j]
            target = isa.ProcState(target.regs, target.pc, isa.sb_enq(target.sb, entry),
                                   isa.ib_rm_addr(target.ib, a), target.rts)
            procs = state.procs[:j] + (target,) + state.procs[j + 1:]
            return MachineState(state.m, procs, state.gts, state.next_tag)
        return super().apply(state, rule)

    def _apply_dequeue(self, state: MachineState, rule: RuleInstance) -> MachineState:
        a = rule.payload[0]
        old = mem_get(state.m, a, 0)
        entry = isa.sb_oldest(state.procs[rule.proc].sb, a)
        tag = entry[2]
        m = mem_set(state.m, a, entry[1])
        procs = []
        for proc in state.procs:
            if isa.sb_has_tag(proc.sb, tag):
                removed, sb = isa.sb_rm_oldest(proc.sb, a)
                assert removed == entry
                procs.append(isa.ProcState(proc.regs, proc.pc, sb, proc.ib, proc.rts))
            elif not isa.sb_exist(proc.sb, a):
                procs.append(isa.ProcState(proc.regs, proc.pc, proc.sb,
                                           isa.ib_insert(proc.ib, (a, old)), proc.rts))
            else:
                procs.append(proc)
        return MachineState(m, tuple(procs), state.gts, state.next_tag)

    def canonical_key(self, state: MachineState):
        """Tags are opaque identities: rename them by first appearance so
        allocation history cannot split otherwise-identical states."""
        rename: dict[int, int] = {}

        def canon(tag: int) -> int:
            if tag not in rename:
                rename[tag] = len(rename)
            return rename[tag]

        return (state.m, tuple(
            (proc.regs, proc.pc,
             tuple((a, v, canon(t)) for a, v, t in proc.sb),
             proc.ib)
            for proc in state.procs))

    def check_invariants(self, state: MachineState) -> None:
        super().check_invariants(state)
        addresses = {e[0] for proc in state.procs for e in proc.sb}
        for a in addresses:
            lists = [[e[2] for e in proc.sb if e[0] == a] for proc in state.procs]
            for order in lists:
                assert len(order) == len(set(order)), "tag repeated in one buffer"
            assert _acyclic(lists), f"coherence cycle among stores to {a}"

    def _describe_payload(self, rule: RuleInstance) -> str:
        if rule.rule == self.COPY_RULE:
            a, tag, j = rule.payload
            return f"{self.addr_name(a)} tag {tag} -> {self.thread_names[j]}"
        return super()._describe_payload(rule)
