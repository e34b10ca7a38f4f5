"""The step and drain memos against cold expansion beyond the Tier-1 suite.

Explores the `random-weak` benchmark programs of the given seeds under
`sc`, `tso`, `pso`, `wmm`, `wmm-d` and the timestamped WMM-D machine
built directly (`oracle.TIMESTAMPED`, which `build_model` never picks
for these programs: none has a load whose address reads a register),
and the `random-wmms` programs of the same seeds under `wmm-s` (default
seed 2; programs built by `perfbench/gen.py`).  Every state each exploration reaches is expanded
once from the memos the exploration left filled and once through
`oracle.cold_expansion`, which empties them first; the script exits 1
if any state's rule instances or successors differ.  Pytest does not
collect this file; run it from the root of a checkout:

    PYTHONPATH=src python3 tests/memo_against_cold.py [SEED ...]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen
from run import WORKLOADS

from i2e_litmus.litmus import parse
from oracle import TIMESTAMPED, build, cold_expansion, explore_audited

MODELS = {"random-weak": ("sc", "tso", "pso", "wmm", "wmm-d", TIMESTAMPED),
          "random-wmms": ("wmm-s",)}


def differing_states(model) -> tuple[int, int]:
    """How many states an exploration of model reaches, and how many of
    them expand differently from the memos than cold."""
    states = {model.initial_state(): None}
    explore_audited(model, audit=lambda state, rule, nxt: states.setdefault(nxt))
    warm = [list(model.expand(state)) for state in states]
    return len(states), sum(pairs != cold_expansion(model, state)
                            for state, pairs in zip(states, warm))


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [2]
    start = time.perf_counter()
    pairs = states = differences = 0
    for seed in seeds:
        for workload, model_ids in MODELS.items():
            for program in gen.generate(workload, WORKLOADS[workload].shape, seed):
                test = parse(program.text)
                for model_id in model_ids:
                    reached, differing = differing_states(build(model_id, test))
                    pairs += 1
                    states += reached
                    differences += differing
                    if differing:
                        print(f"{program.name} under {model_id}: {differing} of "
                              f"{reached} states expand differently from the memos")
    print(f"{pairs} (program, model) pairs (seeds {seeds}), {states} states, "
          f"{differences} differing, in {time.perf_counter() - start:.1f} s")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
