"""Outcome-set benchmark for i2e-litmus.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Each run makes timed passes over the workload's (test, model) pairs (on
`corpus` also quick rounds over its fast pairs), sets the library up
again between them, and checks every result.  With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics, scaled by
the yardstick (yardstick.py) timed between and during pairs; with
``--trace 1`` the first pass is untraced (the overhead baseline) and the
rest are traced, and the JSON carries the per-layer metrics as measured.
Details and rationale live in perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import gen
from tracing import NullTracer, Tracer
from yardstick import NoYardstick, Yardstick

DEFAULT_SEED = 1
MIN_PASSES = 2
QUICK_PAIR_S = 0.1         # pairs faster than this are re-timed in quick rounds
SETUP_REPS = 25            # at least, per run
SETUP_REPS_PER_ROUND = 2   # made after each round, so set-up is sampled across the run
OUT_DIR = Path(".perfbench-out")
_clock = time.perf_counter

MODEL_IDS = ("sc", "tso", "pso", "wmm", "wmm-d", "wmm-s")

# Rule ids per model, as they appear in RuleInstance.rule.
RULES = {
    "sc": ("SC-Nm", "SC-Ld", "SC-St", "SC-Com", "SC-Rec"),
    "tso": ("TSO-Nm", "TSO-Ld", "TSO-St", "TSO-Com", "TSO-Rec", "TSO-DeqSb"),
    "pso": ("TSO-Nm", "TSO-Ld", "TSO-St", "TSO-Com", "TSO-Rec", "PSO-DeqSb"),
    "wmm": ("WMM-Nm", "WMM-LdSb", "WMM-LdMem", "WMM-LdIb", "WMM-St",
            "WMM-Com", "WMM-Rec", "WMM-DeqSb"),
    "wmm-d": ("WMM-D-Nm", "WMM-D-LdSb", "WMM-D-LdMem", "WMM-D-LdIb",
              "WMM-D-St", "WMM-D-Com", "WMM-D-Rec", "WMM-D-DeqSb"),
    "wmm-s": ("WMM-Nm", "WMM-LdSb", "WMM-LdMem", "WMM-LdIb", "WMM-S-St",
              "WMM-Com", "WMM-Rec", "WMM-S-DeqSb", "WMM-S-Copy"),
}


@dataclass(frozen=True)
class Workload:
    models: tuple[str, ...]
    shape: Optional[gen.Shape]   # None: the embedded corpus
    witnesses: bool              # replay a witness for every reachable outcome
    inclusions: tuple[tuple[str, str], ...]  # outcomes(left) must lie within outcomes(right)
    reference: Optional[str] = None  # explored once, before the timed passes
    quick_rounds: int = 0  # after each untraced pass, rounds over the quick pairs only


WORKLOADS = {
    # Four wmm-s pairs take 94% of a pass, so without quick rounds the other
    # 128 pairs would be timed only twice in a run.
    "corpus": Workload(
        MODEL_IDS, None, False,
        (("sc", "tso"), ("tso", "pso"), ("pso", "wmm"), ("wmm", "wmm-s"), ("wmm-d", "wmm")),
        quick_rounds=10),
    "random-weak": Workload(
        ("sc", "tso", "pso", "wmm", "wmm-d"),
        gen.Shape(count=60, thread_counts=(2, 3), kind_weights=(35, 35, 15, 15)), True,
        (("sc", "tso"), ("tso", "pso"), ("pso", "wmm"), ("wmm-d", "wmm"))),
    # Stores weigh more here, so store buffers get several entries deep.
    "random-wmms": Workload(
        ("wmm-s",),
        gen.Shape(count=120, thread_counts=(2,), kind_weights=(30, 50, 10, 10)), True,
        (("wmm", "wmm-s"),), reference="wmm"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {"setup.import_s": "s", "corpus.load_s": "s",
             "litmus.parse_s": "s", "litmus.bind_s": "s",
             "litmus.eval_condition_s": "s", "litmus.eval_condition_calls": "count",
             "isa.decode_s": "s", "isa.decode_calls": "count",
             "isa.execute_s": "s", "isa.execute_calls": "count"}
    for model_id in MODEL_IDS:
        for method in ("enabled", "apply", "canonical_key", "is_terminal"):
            units[f"models.{model_id}.{method}_s"] = "s"
        for method in ("enabled", "apply"):
            units[f"models.{model_id}.{method}_calls"] = "count"
        for rule in RULES[model_id]:
            units[f"models.{model_id}.rule.{rule}"] = "count"
    units.update({
        "explorer.explore_s": "s", "explorer.self_s": "s",
        "explorer.states": "count", "explorer.edges": "count",
        "explorer.dedup_hits": "count", "explorer.max_frontier": "count",
        "explorer.states_per_s": "1/s", "explorer.dup_successor_edges": "count",
        "explorer.new_state_ratio": "1",
        "explorer.witness_s": "s", "explorer.replay_s": "s",
        "explorer.witness_steps": "count",
        "trace.untraced_pass_s": "s", "trace.traced_pass_s": "s",
        "trace.overhead_s": "s",
    })
    return units


END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "pair_p50_ms": "ms",
                    "pair_p90_ms": "ms", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Set-up: import, load or parse, bind
# ---------------------------------------------------------------------------

@dataclass
class Case:
    name: str
    bound: object
    expected: Optional[dict]   # corpus: model id -> condition satisfiable
    program: Optional[gen.Program]


def set_up(workload: Workload, programs: list[gen.Program], src: Path, reps: int):
    """Import the library and bind the inputs `reps` times; returns the
    last repetition's library and cases, and every repetition's
    (start, end, 0) span of each part."""
    spans: dict[str, list[tuple[float, float, float]]] = {}

    def note(name: str, start: float, end: float) -> None:
        spans.setdefault(name, []).append((start, end, 0.0))

    for _ in range(reps):
        for name in [n for n in sys.modules if n.split(".")[0] == "i2e_litmus"]:
            del sys.modules[name]
        gc.collect()
        t0 = _clock()
        lib = importlib.import_module("i2e_litmus")
        t1 = _clock()
        if workload.shape is None:
            entries = lib.load_corpus()
            tests = [entry.test for entry in entries]
        else:
            tests = [lib.parse(program.text) for program in programs]
        t2 = _clock()
        bounds = [lib.bind(test) for test in tests]
        t3 = _clock()
        note("setup_s", t0, t3)
        note("setup.import_s", t0, t1)
        note("corpus.load_s" if workload.shape is None else "litmus.parse_s", t1, t2)
        note("litmus.bind_s", t2, t3)

    if Path(lib.__file__).resolve().parent != src.resolve():
        raise SystemExit(f"error: imported i2e_litmus from {lib.__file__}, not {src}")
    if workload.shape is None:
        cases = [Case(e.name, b, e.expected, None) for e, b in zip(entries, bounds)]
    else:
        cases = [Case(p.name, b, None, p) for p, b in zip(programs, bounds)]
    return lib, cases, spans


# ---------------------------------------------------------------------------
# One (test, model) pair and one pass
# ---------------------------------------------------------------------------

@dataclass
class PairRun:
    outcomes: frozenset
    states: int
    dedup_hits: int
    max_frontier: int
    witness_steps: int = 0
    span: tuple = (0.0, 0.0, 0.0)   # start, end, seconds spent on the yardstick
    problems: list[str] = field(default_factory=list)


def run_pair(lib, case: Case, model_id: str, workload: Workload, tracer, evaluate,
             yardstick) -> PairRun:
    model = lib.build_model(model_id, case.bound)
    tracer.instrument(model, model_id)
    yardstick.watch(model)
    with tracer.exploring():
        result = lib.explore(model)
    stats = result.stats
    run = PairRun(result.outcomes, stats.visited, stats.dedup_hits, stats.max_frontier)
    if not result.complete:
        run.problems.append("exploration incomplete")

    # Judge every check as the CLI does: sorted outcomes, first match wins.
    ordered = sorted(result.outcomes)
    satisfiable = [any(evaluate(chk.cond, o) for o in ordered) for chk in case.bound.checks]
    if case.expected is not None:
        if any(satisfiable) != case.expected[model_id]:
            run.problems.append(f"verdict satisfiable={any(satisfiable)}, "
                                f"corpus expects {case.expected[model_id]}")
    elif satisfiable != [True, False]:   # gen.py: `allowed` reachable, `forbidden` not
        run.problems.append(f"satisfiable {satisfiable}, want allowed=True forbidden=False")

    if workload.witnesses:
        for outcome in ordered:
            with tracer.span("explorer.witness"):
                rules = result.witness(outcome)
            run.witness_steps += len(rules)
            try:
                with tracer.span("explorer.replay"):
                    _, replayed = lib.replay(model, rules)
            except ValueError as err:   # replay refuses a rule that is not enabled
                run.problems.append(f"witness does not replay: {err}")
                continue
            if replayed != outcome:
                run.problems.append("witness replays to a different outcome")
    return run


def run_pass(lib, workload: Workload, cases: list[Case], reference: dict,
             tracer, evaluate, yardstick, only=None, known=None) -> tuple[float, dict]:
    """Every pair once, or only the pairs in `only`, ticking the yardstick
    after each; the inclusion checks take the other pairs' outcomes from
    `known` (an earlier pass)."""
    pairs: dict[tuple[str, str], PairRun] = {}
    start = _clock()
    for case in cases:
        for model_id in workload.models:
            if only is not None and (case.name, model_id) not in only:
                continue
            tracer.pair = f"{case.name}/{model_id}"
            t0, spent = _clock(), yardstick.spent
            run = run_pair(lib, case, model_id, workload, tracer, evaluate, yardstick)
            run.span = (t0, _clock(), yardstick.spent - spent)
            pairs[(case.name, model_id)] = run
            yardstick.tick()
        outcomes = {m: (pairs.get((case.name, m)) or known[(case.name, m)]).outcomes
                    for m in workload.models}
        outcomes.update(reference.get(case.name, {}))
        for left, right in workload.inclusions:
            if not outcomes[left] <= outcomes[right]:
                blamed = left if left in workload.models else right
                if (case.name, blamed) in pairs:
                    pairs[(case.name, blamed)].problems.append(
                        f"outcomes({left}) not within outcomes({right})")
    return _clock() - start, pairs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(setup: dict, done: "Passes", seconds) -> dict[str, float]:
    """`seconds(span)` is a span's length: as measured, or scaled by the
    yardstick."""
    times = sorted(statistics.median(map(seconds, spans)) for spans in done.pair_spans.values())
    return {
        "setup_s": statistics.median(map(seconds, setup["setup_s"])),
        # The fastest full pass: what the yardstick misses of the host's
        # slowdowns only ever adds time, and corpus has two passes a run.
        "pass_s": min(sum(map(seconds, spans)) for spans in done.pass_spans),
        "pair_p50_ms": statistics.median(times) * 1e3,
        "pair_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "peak_rss_mb": done.peak_rss_mb,
    }


def length(span: tuple[float, float, float]) -> float:
    """A (start, end, seconds spent on the yardstick) span's own length."""
    start, end, spent = span
    return end - start - spent


def layer_counts(tracer: Tracer, pairs: dict) -> tuple[dict[str, int], list[str]]:
    """The exact work counts of one traced pass, and any disagreement
    between the outside-in counts and the library's own ExploreStats."""
    counts = {name: n for name, n in tracer.counts.items() if ".rule." in name}
    counts.update({
        "explorer.states": tracer.counts["states"],
        "explorer.edges": tracer.counts["edges"],
        # Every new key is visited once, so the rest of the edges were dedup hits.
        "explorer.dedup_hits": tracer.counts["edges"] - tracer.counts["states"] + len(pairs),
        "explorer.dup_successor_edges": tracer.counts["dup_successor_edges"],
        "explorer.max_frontier": max(p.max_frontier for p in pairs.values()),
        "explorer.witness_steps": sum(p.witness_steps for p in pairs.values()),
    })
    for key in ("enabled", "apply"):
        for model_id in MODEL_IDS:
            counts[f"models.{model_id}.{key}_calls"] = tracer.calls[f"models.{model_id}.{key}"]
    counts["isa.decode_calls"] = tracer.calls["isa.decode"]
    counts["isa.execute_calls"] = tracer.calls["isa.execute"]
    counts["litmus.eval_condition_calls"] = tracer.calls["litmus.eval_condition"]

    outside = (counts["explorer.states"], counts["explorer.dedup_hits"])
    library = (sum(p.states for p in pairs.values()), sum(p.dedup_hits for p in pairs.values()))
    warnings = [] if outside == library else [
        f"outside-in states/dedup hits {outside} differ from ExploreStats {library}"]
    return counts, warnings


def layer_times(tracer: Tracer) -> dict[str, float]:
    times = {
        "explorer.explore_s": tracer.total_s["explorer.explore"],
        "explorer.self_s": tracer.self_s["explorer.explore"],
        "explorer.witness_s": tracer.total_s["explorer.witness"],
        "explorer.replay_s": tracer.total_s["explorer.replay"],
        "isa.decode_s": tracer.self_s["isa.decode"],
        "isa.execute_s": tracer.self_s["isa.execute"],
        "litmus.eval_condition_s": tracer.self_s["litmus.eval_condition"],
    }
    for model_id in MODEL_IDS:
        for method in ("enabled", "apply", "canonical_key", "is_terminal"):
            times[f"models.{model_id}.{method}_s"] = tracer.self_s[f"models.{model_id}.{method}"]
    return times


def per_layer(setup: dict, pass_s: list[float], traced: list) -> tuple[dict, list[str]]:
    """Median layer times over the traced passes (all but the first),
    counts from the last one; warns when traced passes counted differently."""
    counts = [c for _, c in traced]
    warnings = [f"traced pass {n + 2} counted different work than pass 2"
                for n, c in enumerate(counts[1:], start=1) if c != counts[0]]
    per_tracer = [layer_times(tracer) for tracer, _ in traced]
    metrics = {name: 0 for name in per_layer_units()}
    metrics.update({name: statistics.median(t[name] for t in per_tracer) for name in per_tracer[0]})
    metrics.update(counts[-1])
    for name in ("setup.import_s", "corpus.load_s", "litmus.parse_s", "litmus.bind_s"):
        metrics[name] = setup.get(name, 0.0)
    explore_s = metrics["explorer.explore_s"]
    edges = metrics["explorer.edges"]
    metrics["explorer.states_per_s"] = metrics["explorer.states"] / explore_s if explore_s else 0.0
    metrics["explorer.new_state_ratio"] = (edges - metrics["explorer.dedup_hits"]) / edges if edges else 0.0
    traced_s = statistics.median(pass_s[1:])
    metrics.update({"trace.untraced_pass_s": pass_s[0], "trace.traced_pass_s": traced_s,
                    "trace.overhead_s": traced_s - pass_s[0]})
    unknown = sorted(set(metrics) - set(per_layer_units()))
    if unknown:
        warnings.append(f"rules outside the catalog: {', '.join(unknown)}")
    return {name: metrics[name] for name in per_layer_units()}, warnings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@dataclass
class Passes:
    """What the timed rounds leave behind.  Only pass 1's pair results are
    kept whole; later rounds keep timings, failures and (traced) counts,
    so memory does not grow with the number of rounds."""

    first: dict = field(default_factory=dict)
    seconds: list[float] = field(default_factory=list)   # wall time of each full pass
    pass_spans: list[list] = field(default_factory=list)  # each full pass's pair spans
    pair_spans: dict = field(default_factory=dict)   # pair -> its span in each round it ran in
    rounds: int = 0             # full passes and quick rounds
    attempted: int = 0          # pair runs
    failures: list[dict] = field(default_factory=list)
    traced: list[tuple] = field(default_factory=list)  # (tracer, counts) per traced pass
    warnings: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0   # when pass 1 ends, before the rest of set-up

    def add(self, pairs: dict) -> None:
        """Keep one round's timings and failures."""
        self.first = self.first or pairs
        self.rounds += 1
        self.attempted += len(pairs)
        for key, run in pairs.items():
            self.pair_spans.setdefault(key, []).append(run.span)
            problems = list(run.problems)
            if run.outcomes != self.first[key].outcomes:
                problems.append("outcome set differs from pass 1")
            if problems:
                self.failures.append({"round": self.rounds, "test": key[0],
                                      "model": key[1], "problems": problems})


def make_passes(args, lib, workload: Workload, cases: list[Case], reference: dict,
                yardstick, between) -> Passes:
    """Full passes while another one fits in `args.seconds` (at least
    MIN_PASSES, one more when traced).  Untraced, each pass is followed by
    the workload's quick rounds, which re-time only the pairs faster than
    QUICK_PAIR_S.  `between()` runs after every round.  In a traced run
    every pass after the first is traced."""
    isa = importlib.import_module("i2e_litmus.isa")
    done = Passes()
    min_passes = MIN_PASSES + args.trace
    quick_rounds = 0 if args.trace else workload.quick_rounds
    start = _clock()

    def more(seconds: float) -> bool:
        return len(done.seconds) < min_passes or _clock() - start + seconds <= args.seconds

    while more(statistics.median(done.seconds) if done.seconds else 0.0):
        if args.trace and done.seconds:
            tracer = Tracer()
            restore = tracer.patch_isa(isa)
            try:
                seconds, pairs = run_pass(lib, workload, cases, reference, tracer,
                                          tracer.timed("litmus.eval_condition", lib.eval_condition),
                                          yardstick)
            finally:
                restore()
            counts, mismatch = layer_counts(tracer, pairs)
            done.traced.append((tracer, counts))
            done.warnings += mismatch
        else:
            seconds, pairs = run_pass(lib, workload, cases, reference, NullTracer(),
                                      lib.eval_condition, yardstick)
        done.seconds.append(seconds)
        done.pass_spans.append([run.span for run in pairs.values()])
        done.add(pairs)
        if len(done.seconds) == 1:   # every pass does the same work
            done.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        between()

        best = {key: min(map(length, spans)) for key, spans in done.pair_spans.items()}
        quick = {key for key, seconds in best.items() if seconds < QUICK_PAIR_S}
        for _ in range(quick_rounds):
            if not more(sum(best[key] for key in quick)):
                break
            done.add(run_pass(lib, workload, cases, reference, NullTracer(),
                              lib.eval_condition, yardstick, only=quick, known=done.first)[1])
            between()
    return done


def write_record(args, workload: Workload, cases: list[Case], done: Passes,
                 metrics: dict, measured: dict, yardstick) -> Path:
    """The run's record (and, when traced, its spans) under OUT_DIR."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": done.seconds, "rounds": done.rounds,
        "pairs": len(done.first), "attempted": done.attempted, "failed": len(done.failures),
        "failures": done.failures, "warnings": done.warnings, "metrics": metrics,
        "as_measured": measured,
        "yardstick": {"at": yardstick.at, "s": yardstick.samples} if not args.trace else {},
        "pass_spans": done.pass_spans,
        "programs": [{"name": c.name,
                      "threads": len(c.bound.test.threads),
                      "instructions": c.bound.test.instruction_count(),
                      "states": {m: done.first[(c.name, m)].states for m in workload.models}}
                     for c in cases],
        "pair_ms": {f"{t}/{m}": statistics.median(map(length, spans)) * 1e3
                    for (t, m), spans in done.pair_spans.items()},
    }
    if done.traced:
        record["pair_counts"] = done.traced[-1][0].pair_counts
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as out:
            for tracer, _ in done.traced:
                for name, pair, begin, end, parent in tracer.spans:
                    out.write(json.dumps({"name": name, "pair": pair, "start": begin,
                                          "end": end, "parent": parent}) + "\n")
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def measure(args, src: Path) -> int:
    workload = WORKLOADS[args.workload]
    programs = gen.generate(args.workload, workload.shape, args.seed) if workload.shape else []
    # One set-up before the passes, the other repetitions between and after
    # them: spread over the run, their median does not hang on the host's
    # speed during one second or two.  The passes keep using the first
    # set-up's modules; re-importing replaces only what sys.modules holds.
    lib, cases, setup_times = set_up(workload, programs, src, 1)

    def set_up_again(reps: int) -> None:
        for name, spans in set_up(workload, programs, src, reps)[2].items():
            setup_times[name] += spans

    reference: dict[str, dict] = {}
    if workload.reference:
        for case in cases:
            result = lib.explore(lib.build_model(workload.reference, case.bound))
            reference[case.name] = {workload.reference: result.outcomes}
            if not result.complete:
                sys.exit(f"error: {workload.reference} exploration of {case.name} incomplete")

    # The traced run reports layer times as measured; the yardstick's
    # timings would land inside the layers' spans.
    yardstick = NoYardstick() if args.trace else Yardstick()

    def between() -> None:
        set_up_again(SETUP_REPS_PER_ROUND)
        yardstick.tick()

    done = make_passes(args, lib, workload, cases, reference, yardstick, between)
    if len(setup_times["setup_s"]) < SETUP_REPS:
        set_up_again(SETUP_REPS - len(setup_times["setup_s"]))
    measured = {}
    if args.trace:
        setup = {name: statistics.median(map(length, spans)) for name, spans in setup_times.items()}
        metrics, disagree = per_layer(setup, done.seconds, done.traced)
        done.warnings += disagree
        units = per_layer_units()
    else:
        metrics = end_to_end(setup_times, done, yardstick.seconds)
        measured = end_to_end(setup_times, done, length)
        units = END_TO_END_UNITS
    path = write_record(args, workload, cases, done, metrics, measured, yardstick)

    print(f"workload {args.workload}: seed {args.seed}, {len(cases)} tests, "
          f"{len(done.first)} pairs, {len(done.seconds)} passes, {done.rounds} rounds"
          + (" (pass 1 untraced, the rest traced)" if args.trace else ""))
    if not args.trace:
        print(f"yardstick: median {statistics.median(yardstick.samples) * 1e3:.4g} ms over "
              f"{len(yardstick.samples)} timings; times below are scaled to its nominal "
              f"speed (as measured in brackets)")
    for name, value in metrics.items():
        timed = name in measured and units[name] in ("s", "ms")
        as_measured = f"  ({measured[name]:.6g})" if timed else ""
        print(f"  {name:<40} {value:>14.6g} {units[name]}{as_measured}")
    failed = len(done.failures)
    print(f"failed_share {failed / done.attempted:.6g} ({failed}/{done.attempted} pair runs)")
    for line in report_failures(done.failures, cases) + [f"warning: {w}" for w in done.warnings]:
        print(line)
    print(f"results: {path}")
    print(json.dumps({
        "correct": not done.failures, "attempted": done.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def report_failures(failures: list, cases: list[Case]) -> list[str]:
    """One line per failing pair; generated programs are written out so
    that `i2e-litmus <file> --models <model>` reproduces them."""
    lines, seen = [], set()
    by_name = {case.name: case for case in cases}
    for failure in failures:
        key = (failure["test"], failure["model"])
        if key in seen:
            continue
        seen.add(key)
        line = f"FAILED {key[0]} under {key[1]}: {'; '.join(dict.fromkeys(failure['problems']))}"
        program = by_name[key[0]].program
        if program is not None:
            path = OUT_DIR / "failed" / f"{program.name}.litmus"
            path.parent.mkdir(exist_ok=True)
            path.write_text(program.text, encoding="utf-8")
            line += f"\n  reproduce: i2e-litmus {path} --models {key[1]}"
        lines.append(line)
    return lines


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="draws the random-* programs (default %(default)s)")
    ap.add_argument("--seconds", type=float, default=36.0,
                    help=f"make passes while another fits in this long "
                         f"(at least {MIN_PASSES} passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src" / "i2e_litmus"
    if not (src / "__init__.py").is_file():
        print(f"error: no i2e_litmus sources under {src.parent}; "
              "run from the root of an i2e-litmus checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src.parent))
    return measure(args, src)


if __name__ == "__main__":
    sys.exit(main())
