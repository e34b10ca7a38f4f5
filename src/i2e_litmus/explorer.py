"""Exhaustive, deduplicated search over rule firings.

From a test's initial state the explorer follows every rule instance
that the model's `expand` offers, deduplicating states by their
canonical key, until it has seen every reachable terminal state.  The
set of terminal outcomes is independent of the frontier discipline
(BFS, DFS, or seeded random pops), which the test suite checks.  Resource limits never turn into
verdicts: hitting one marks the result incomplete and every dependent
check inconclusive.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Callable, NamedTuple, Optional, Union

from .litmus import (BoundTest, Check, LitmusTest, Outcome, bind, eval_condition, record,
                     render_condition)
from .models import BaseModel, MachineState, RuleInstance, build_model

ORDERS = ("bfs", "dfs", "random")


@record
class ExploreLimits(NamedTuple):
    max_states: int = 5_000_000
    timeout: float = 60.0


@record
class ExploreStats(NamedTuple):
    """`edges` counts every rule firing from an expanded state: each one
    either found a new state or was a dedup hit.  Built once, when
    `explore` returns."""

    visited: int
    dedup_hits: int
    edges: int
    max_frontier: int
    wall_time: float


@record
class ExploreResult(NamedTuple):
    """All reachable terminal outcomes, plus enough bookkeeping to
    reconstruct one witness trace per outcome on demand: `parents` maps
    each state's key to its (parent key, rule) and `terminal_keys` each
    outcome to the key of the first state that reached it."""

    outcomes: frozenset[Outcome]
    complete: bool
    stats: ExploreStats
    deadlocked: int
    model: BaseModel
    parents: dict
    terminal_keys: dict

    def __repr__(self) -> str:  # without the two maps, which grow with the state count
        return "ExploreResult(%s)" % ", ".join("%s=%r" % fv for fv in zip(self._fields[:5], self))

    def witness(self, outcome: Outcome) -> tuple[RuleInstance, ...]:
        """The rule firing sequence of the first path that reached outcome."""
        key = self.terminal_keys[outcome]
        rules = []
        while True:
            parent, rule = self.parents[key]
            if rule is None:
                break
            rules.append(rule)
            key = parent
        rules.reverse()
        return tuple(rules)


def explore(model: BaseModel,
            limits: Optional[ExploreLimits] = None,
            order: str = "bfs",
            seed: Optional[int] = None,
            audit: Optional[Callable] = None) -> ExploreResult:
    """Enumerate all reachable terminal outcomes of one model run.

    `audit`, when given, is called as audit(state, rule, successor) for
    every expansion, including edges into already-visited states.
    """
    if order not in ORDERS:
        raise ValueError(f"unknown exploration order {order!r}")
    limits = limits or ExploreLimits()
    rng = random.Random(seed) if order == "random" else None
    started = time.monotonic()
    visited = dedup_hits = max_frontier = deadlocked = 0

    init = model.initial_state()
    init_key = model.canonical_key(init)
    parents = {init_key: (None, None)}
    frontier = deque([(init, init_key)])
    outcomes: dict[Outcome, object] = {}
    complete = True

    while frontier:
        if visited >= limits.max_states or time.monotonic() - started > limits.timeout:
            complete = False
            break
        if order == "bfs":
            state, key = frontier.popleft()
        elif order == "dfs":
            state, key = frontier.pop()
        else:
            pick = rng.randrange(len(frontier))
            frontier[pick], frontier[-1] = frontier[-1], frontier[pick]
            state, key = frontier.pop()
        visited += 1

        if model.is_terminal(state):
            found = model.outcome(state)
            if found not in outcomes:
                outcomes[found] = key
            continue
        rule = None
        for rule, nxt in model.expand(state):
            if audit is not None:
                audit(state, rule, nxt)
            nxt_key = model.canonical_key(nxt)
            if nxt_key in parents:
                dedup_hits += 1
                continue
            parents[nxt_key] = (key, rule)
            frontier.append((nxt, nxt_key))
        if rule is None:
            # Should be unreachable for these models; reported, not raised.
            deadlocked += 1
            continue
        if len(frontier) > max_frontier:
            max_frontier = len(frontier)

    return ExploreResult(
        outcomes=frozenset(outcomes),
        complete=complete,
        stats=ExploreStats(visited, dedup_hits, len(parents) - 1 + dedup_hits, max_frontier,
                           time.monotonic() - started),
        deadlocked=deadlocked,
        model=model,
        parents=parents,
        terminal_keys=outcomes,
    )


def replay(model: BaseModel, rules) -> tuple[MachineState, Outcome]:
    """Re-run a witness, checking each rule is offered where it fires."""
    state = model.initial_state()
    for rule in rules:
        for offered, nxt in model.expand(state):
            if offered == rule:
                state = nxt
                break
        else:
            raise ValueError(f"witness rule not enabled: {rule}")
    if not model.is_terminal(state):
        raise ValueError("witness does not end in a terminal state")
    return state, model.outcome(state)


# ---------------------------------------------------------------------------
# Checking a test against its conditions
# ---------------------------------------------------------------------------

@record
class Verdict(NamedTuple):
    polarity: str
    condition: str
    satisfiable: bool
    passed: Optional[bool]      # None when the exploration was cut short
    inconclusive: bool
    witness: Optional[tuple[RuleInstance, ...]] = None


@record
class CheckReport(NamedTuple):
    test_name: str
    model_id: str
    verdicts: list[Verdict]
    result: ExploreResult

    @property
    def passed(self) -> Optional[bool]:
        if any(v.passed is False for v in self.verdicts):
            return False
        if any(v.inconclusive for v in self.verdicts):
            return None
        return True


def _judge(check: Check, result: ExploreResult,
           want_witness: bool) -> Verdict:
    witness_outcome = None
    for outcome in sorted(result.outcomes):
        if eval_condition(check.cond, outcome):
            witness_outcome = outcome
            break
    satisfiable = witness_outcome is not None

    if result.complete:
        passed = (check.polarity == "allowed") == satisfiable
        inconclusive = False
    elif satisfiable:
        # A witness in a partial set is definitive either way.
        passed = check.polarity == "allowed"
        inconclusive = False
    else:
        passed = None
        inconclusive = True

    witness = None
    if want_witness and satisfiable:
        witness = result.witness(witness_outcome)
    return Verdict(
        polarity=check.polarity,
        condition=render_condition(check.cond),
        satisfiable=satisfiable,
        passed=passed,
        inconclusive=inconclusive,
        witness=witness,
    )


def check(test: Union[LitmusTest, BoundTest],
          model_id: str,
          limits: Optional[ExploreLimits] = None,
          order: str = "bfs",
          seed: Optional[int] = None,
          want_witness: bool = False) -> CheckReport:
    """Explore one (test, model) pair and judge every check in the test."""
    bound = test if isinstance(test, BoundTest) else bind(test)
    model = build_model(model_id, bound)
    result = explore(model, limits=limits, order=order, seed=seed)
    verdicts = [_judge(chk, result, want_witness) for chk in bound.checks]
    return CheckReport(bound.test.name, model_id, verdicts, result)


def outcome_subset(left: ExploreResult, right: ExploreResult) -> tuple[Optional[bool], Optional[Outcome]]:
    """Is outcomes(left) a subset of outcomes(right)?

    Returns (None, None) when either side is incomplete, otherwise the
    boolean plus a distinguishing outcome when inclusion fails.
    """
    if not (left.complete and right.complete):
        return None, None
    extra = left.outcomes - right.outcomes
    if extra:
        return False, sorted(extra)[0]
    return True, None
