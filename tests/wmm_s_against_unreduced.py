"""WMM-S against the paper's machine beyond the Tier-1 suite.

Explores the `random-wmms` benchmark programs of the given seeds
(default 2 and 3, 120 programs each, built by `perfbench/gen.py`) under
`wmm-s`, once reduced and once through `oracle.unreduced`, and exits 1
if any outcome set or `complete` flag differs, if a reduced search
visits more states than the unreduced one, or if a reduced witness does
not reach its outcome, replayed on the reduced model and, with each Copy
split from its load (`oracle.split_copy_loads`), on the unreduced one.
The witnesses come from a BFS and a DFS search of the reduced model:
BFS finds the shortest, which on these two-thread programs never copy
a store, while many DFS ones do.
Pytest does not collect this file; run it from the root of a checkout:

    PYTHONPATH=src python3 tests/wmm_s_against_unreduced.py [SEED ...]
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
from i2e_litmus.models import build_model
from oracle import split_copy_loads, unreduced


def replays(model, witness, outcome) -> bool:
    """Whether model offers every step of witness and ends in outcome."""
    try:
        return replay(model, witness)[1] == outcome
    except ValueError:  # a step that model does not offer
        return False


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [2, 3]
    shape = WORKLOADS["random-wmms"].shape
    differences = programs = witnesses = copying = 0
    visited = {"reduced": 0, "unreduced": 0}
    seconds = {"reduced": 0.0, "unreduced": 0.0}
    for seed in seeds:
        for program in gen.generate("random-wmms", shape, seed):
            test = parse(program.text)
            results = {}
            for side, model in (("reduced", build_model("wmm-s", test)),
                                ("unreduced", unreduced(build_model("wmm-s", test)))):
                start = time.perf_counter()
                results[side] = explore(model)
                seconds[side] += time.perf_counter() - start
                visited[side] += results[side].stats.visited
            reduced, reference = results["reduced"], results["unreduced"]
            dfs = explore(build_model("wmm-s", test), order="dfs")
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
                print(f"{program.name}: reduced {len(reduced.outcomes)} outcomes, "
                      f"complete={reduced.complete}, {reduced.stats.visited} states, "
                      f"{unreplayed} witnesses not replayed; "
                      f"unreduced {len(reference.outcomes)} outcomes, "
                      f"complete={reference.complete}, {reference.stats.visited} states")
    print(f"{programs} programs (seeds {seeds}), {witnesses} witnesses ({copying} with "
          f"a Copy), {differences} differing; states "
          f"{visited['reduced']} reduced in {seconds['reduced']:.1f} s, "
          f"{visited['unreduced']} unreduced in {seconds['unreduced']:.1f} s")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
