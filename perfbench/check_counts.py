"""Check that the traced benchmark counts work exactly.

    python3 perfbench/check_counts.py [WORKLOAD ...]   (default: all three)

Runs each workload's traced benchmark twice, each time in a fresh
process, and requires every count metric (states, edges, rule firings,
calls, ...) and every per-pair count to be identical between the two.
For `corpus` it also compares the outside-in counts of iriw under wmm-s
with the baseline in ROADMAP.md.  That baseline describes the explorer
as it was when this benchmark was written: a change that shrinks the
WMM-S search is expected to move it, and should report the new counts.
Exit status 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, OUT_DIR, WORKLOADS, per_layer_units

IRIW_WMMS_BASELINE = {
    "states": 17_756,
    "edges": 148_616,
    "dedup_hits": 130_861,
    "dup_successor_edges": 75_452,
    "models.wmm-s.rule.WMM-S-DeqSb": 67_168,
    "models.wmm-s.rule.WMM-S-Copy": 55_216,
}


def traced_record(workload: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    path = OUT_DIR / f"{workload}-seed{DEFAULT_SEED}-trace1.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    units = per_layer_units()
    record["counts"] = {name: value for name, value in record["metrics"].items()
                        if units[name] == "count"}
    return record


def main(workloads: list[str]) -> int:
    problems = []
    for workload in workloads:
        first, second = traced_record(workload), traced_record(workload)
        for record in (first, second):
            problems += [f"{workload}: {w}" for w in record["warnings"]]
        for key in ("counts", "pair_counts"):
            differ = sorted(name for name in first[key].keys() | second[key].keys()
                            if first[key].get(name) != second[key].get(name))
            problems += [f"{workload}: {key} {name} differs between runs: "
                         f"{first[key].get(name)} vs {second[key].get(name)}" for name in differ]
        print(f"{workload}: {len(first['counts'])} count metrics and "
              f"{len(first['pair_counts'])} pair counts compared across two runs")
        if workload == "corpus":
            iriw = dict(first["pair_counts"]["iriw/wmm-s"])
            iriw["dedup_hits"] = iriw["edges"] - iriw["states"] + 1
            for name, want in IRIW_WMMS_BASELINE.items():
                got = iriw.get(name, 0)
                print(f"  iriw/wmm-s {name:<32} {got:>8} (baseline {want})")
                if got != want:
                    problems.append(f"iriw/wmm-s {name} is {got}, baseline {want}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    print("counts agree" if not problems else f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    chosen = sys.argv[1:] or list(WORKLOADS)
    unknown = [w for w in chosen if w not in WORKLOADS]
    if unknown:
        sys.exit(f"unknown workload(s): {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    sys.exit(main(chosen))
