"""The I²E models against the paper's machine beyond the Tier-1 suite.

Explores the benchmark programs of the given seeds (default 2 and 3,
built by `perfbench/gen.py`) once reduced and once through
`oracle.unreduced`: the 120 `random-wmms` programs per seed under
`wmm-s`, and the 60 `random-weak` programs per seed under `wmm`,
`wmm-d` and the timestamped WMM-D machine built directly
(`oracle.TIMESTAMPED`): `gen.py` emits no load whose address reads a
register, so `build_model("wmm-d", ...)` never picks that machine for
them.  It exits 1 if any outcome set or `complete` flag differs, if
a reduced search visits more states than the unreduced one, or if a
reduced witness does not reach its outcome, replayed on the reduced
model and, with each `wmm-s` Copy split from its load
(`oracle.split_copy_loads`), on the unreduced one.  The witnesses come
from a BFS and a DFS search of the reduced model: BFS finds the
shortest in the reduced graph, which on the two-thread `random-wmms`
programs never copy a store, while many DFS ones do.
Pytest does not collect this file; run it from the root of a checkout:

    PYTHONPATH=src python3 tests/against_unreduced.py [SEED ...]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen
from run import WORKLOADS

from i2e_litmus.explorer import explore, replay
from i2e_litmus.litmus import parse
from oracle import TIMESTAMPED, build, split_copy_loads, unreduced

CHECKS = (("random-wmms", "wmm-s"), ("random-weak", "wmm"), ("random-weak", "wmm-d"),
          ("random-weak", TIMESTAMPED))


def replays(model, witness, outcome) -> bool:
    """Whether model offers every step of witness and ends in outcome."""
    try:
        return replay(model, witness)[1] == outcome
    except ValueError:  # a step that model does not offer
        return False


def check(workload: str, model_id: str, seeds: list[int]) -> int:
    """Compare one model's reduced and unreduced searches on the workload's
    programs; print a summary line and return the number that differ."""
    shape = WORKLOADS[workload].shape
    differences = programs = witnesses = copying = 0
    visited = {"reduced": 0, "unreduced": 0}
    seconds = {"reduced": 0.0, "unreduced": 0.0}
    for seed in seeds:
        for program in gen.generate(workload, shape, seed):
            test = parse(program.text)
            results = {}
            for side, model in (("reduced", build(model_id, test)),
                                ("unreduced", unreduced(build(model_id, test)))):
                start = time.perf_counter()
                results[side] = explore(model)
                seconds[side] += time.perf_counter() - start
                visited[side] += results[side].stats.visited
            reduced, reference = results["reduced"], results["unreduced"]
            dfs = explore(build(model_id, test), order="dfs")
            programs += 1
            unreplayed = 0
            for result in (reduced, dfs):
                for outcome in result.outcomes:
                    witness = result.witness(outcome)
                    split = split_copy_loads(witness)
                    witnesses += 1
                    copying += len(split) > len(witness)
                    unreplayed += not (replays(result.model, witness, outcome)
                                       and replays(reference.model, split, outcome))
            if (reduced.outcomes != reference.outcomes
                    or dfs.outcomes != reference.outcomes
                    or reduced.complete != reference.complete
                    or reduced.stats.visited > reference.stats.visited
                    or unreplayed):
                differences += 1
                print(f"{program.name} under {model_id}: reduced {len(reduced.outcomes)} "
                      f"outcomes, complete={reduced.complete}, {reduced.stats.visited} states, "
                      f"{unreplayed} witnesses not replayed; "
                      f"unreduced {len(reference.outcomes)} outcomes, "
                      f"complete={reference.complete}, {reference.stats.visited} states")
    print(f"{model_id}: {programs} {workload} programs (seeds {seeds}), {witnesses} witnesses "
          f"({copying} with a Copy), {differences} differing; states "
          f"{visited['reduced']} reduced in {seconds['reduced']:.1f} s, "
          f"{visited['unreduced']} unreduced in {seconds['unreduced']:.1f} s")
    return differences


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [2, 3]
    differences = sum(check(workload, model_id, seeds) for workload, model_id in CHECKS)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
