"""The I²E models against the paper's machine beyond the Tier-1 suite.

Explores the benchmark programs of the given seeds (default 2 and 3,
built by `perfbench/gen.py`) once reduced and once through
`oracle.unreduced`: the 120 `random-wmms` programs per seed under
`wmm-s`, and the 60 `random-weak` programs per seed under `wmm`,
`wmm-d` and the timestamped WMM-D machine built directly
(`oracle.TIMESTAMPED`).  `gen.py` emits no load whose address reads a
register, so `build_model("wmm-d", ...)` picks that machine only for
their address-dependent variants (`ADDRESS_DEPENDENT`, explored under
`wmm-d`): each `random-weak` program in which some thread loads twice,
every load after a thread's first rewritten by
`test_wmm_d_oracle.address_dependent` to read its address through the
register its thread loaded last.  It exits 1 if any outcome set or
`complete` flag differs, if a reduced search visits more states than
the unreduced one, or if a reduced witness does not reach its outcome,
replayed on the reduced model and, with each `wmm-s` Copy split from
its load (`oracle.split_copy_loads`), on the unreduced one.  The witnesses come
from a BFS and a DFS search of the reduced model: BFS finds the
shortest in the reduced graph, which on the two-thread `random-wmms`
programs never copy a store, while many DFS ones do.

On the same `random-weak` programs and their address-dependent
variants it also compares the outcome sets of `sc`, `tso`, `pso`, `wmm`
and `wmm-d` with their independent oracles in `oracle.py`
(`interleaving_outcomes`, `buffered_outcomes` without and with
per-address dequeues, `wmm_outcomes` and `wmm_d_outcomes`), which share
no code with the models and fire no step eagerly, checks that each
`wmm-d` outcome set is a subset of the `wmm` one, and that `build_model`
picks the timestamped machine for every variant; it exits 1 if any of
these fails.
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
from i2e_litmus.litmus import bind, parse
from i2e_litmus.models import build_model
from i2e_litmus.models.wmm_d import TimestampedWmmDModel
from oracle import (TIMESTAMPED, buffered_outcomes, build, interleaving_outcomes,
                    split_copy_loads, unreduced, wmm_d_outcomes, wmm_outcomes)
from test_wmm_d_oracle import address_dependent

ADDRESS_DEPENDENT = "random-weak-addr"
CHECKS = (("random-wmms", "wmm-s"), ("random-weak", "wmm"), ("random-weak", "wmm-d"),
          ("random-weak", TIMESTAMPED), (ADDRESS_DEPENDENT, "wmm-d"))
# each model with its independent oracle
ORACLES = (("sc", interleaving_outcomes),
           ("tso", lambda bound: buffered_outcomes(bound, per_address=False)),
           ("pso", lambda bound: buffered_outcomes(bound, per_address=True)),
           ("wmm", wmm_outcomes), ("wmm-d", wmm_d_outcomes))


def programs(workload: str, seed: int) -> list[gen.Program]:
    """The workload's programs for seed; for ADDRESS_DEPENDENT, the
    address-dependent variant of each `random-weak` program that has one."""
    if workload != ADDRESS_DEPENDENT:
        return gen.generate(workload, WORKLOADS[workload].shape, seed)
    variants = []
    for program in programs("random-weak", seed):
        text = address_dependent(program.text)
        if text != program.text:
            variants.append(gen.Program(f"{program.name}-addr", text))
    return variants


def replays(model, witness, outcome) -> bool:
    """Whether model offers every step of witness and ends in outcome."""
    try:
        return replay(model, witness)[1] == outcome
    except ValueError:  # a step that model does not offer
        return False


def check(workload: str, model_id: str, seeds: list[int]) -> int:
    """Compare one model's reduced and unreduced searches on the workload's
    programs; print a summary line and return the number that differ."""
    differences = count = witnesses = copying = 0
    visited = {"reduced": 0, "unreduced": 0}
    seconds = {"reduced": 0.0, "unreduced": 0.0}
    for seed in seeds:
        for program in programs(workload, seed):
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
            count += 1
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
    print(f"{model_id}: {count} {workload} programs (seeds {seeds}), {witnesses} witnesses "
          f"({copying} with a Copy), {differences} differing; states "
          f"{visited['reduced']} reduced in {seconds['reduced']:.1f} s, "
          f"{visited['unreduced']} unreduced in {seconds['unreduced']:.1f} s")
    return differences


def check_oracles(seeds: list[int]) -> int:
    """Compare `sc`, `tso`, `pso`, `wmm` and `wmm-d` with their oracles
    (`ORACLES`), and check wmm-d ⊆ wmm, on the `random-weak` programs and
    their address-dependent variants, and that `build_model` picks the
    timestamped WMM-D machine for each variant; print a summary line and
    return the number of (program, check) pairs that fail."""
    differences = count = 0
    for seed in seeds:
        for workload in ("random-weak", ADDRESS_DEPENDENT):
            for program in programs(workload, seed):
                test = parse(program.text)
                bound = bind(test)
                count += 1
                if (workload == ADDRESS_DEPENDENT
                        and type(build_model("wmm-d", test)) is not TimestampedWmmDModel):
                    differences += 1
                    print(f"{program.name}: build_model does not pick the timestamped "
                          "wmm-d machine")
                reached = {}
                for model_id, oracle in ORACLES:
                    result = explore(build_model(model_id, test))
                    reached[model_id] = result.outcomes
                    expected = oracle(bound)
                    if not result.complete or result.outcomes != expected:
                        differences += 1
                        print(f"{program.name} under {model_id}: {len(result.outcomes)} outcomes, "
                              f"complete={result.complete}, oracle {len(expected)}")
                wmm_d = reached["wmm-d"] - reached["wmm"]
                if wmm_d:
                    differences += 1
                    print(f"{program.name}: {len(wmm_d)} wmm-d outcomes not in wmm")
    print(f"sc, tso, pso, wmm and wmm-d against their oracles, and wmm-d within wmm: {count} "
          f"random-weak programs and address-dependent variants (seeds {seeds}), "
          f"{differences} differing")
    return differences


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [2, 3]
    differences = sum(check(workload, model_id, seeds) for workload, model_id in CHECKS)
    differences += check_oracles(seeds)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
