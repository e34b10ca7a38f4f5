"""Command-line front end.

Runs litmus files (or the packaged corpus) against one or more models,
printing verdicts, outcome sets, optional witness traces, and pairwise
outcome-set comparisons.  Exit codes: 0 all good, 1 a check failed (or
a corpus expectation did not hold), 2 a result was inconclusive, 3 a
usage or parse error occurred.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .explorer import CheckReport, ExploreLimits, check, outcome_subset
from .litmus import LitmusError, parse_file
from .models import MODEL_IDS

SCHEMA_VERSION = 3
SEED_ENV = "I2E_LITMUS_SEED"


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; here 2 means inconclusive, so usage
    errors exit 3 like every other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):  # nan would never time out
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="i2e-litmus",
        description="Run litmus tests against operational memory models.",
    )
    ap.add_argument("inputs", nargs="*", metavar="PATH",
                    help=".litmus files or directories containing them")
    ap.add_argument("--corpus", action="store_true",
                    help="run the packaged corpus")
    ap.add_argument("--models", metavar="LIST",
                    help=f"comma-separated subset of: {', '.join(MODEL_IDS)} "
                         "(default: the test's model hint, else all)")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--witness", action="store_true",
                    help="include a witness trace for each satisfiable condition")
    ap.add_argument("--max-states", type=_positive_int, default=ExploreLimits().max_states,
                    metavar="N", help="state budget per (test, model)")
    ap.add_argument("--timeout", type=_positive_seconds, default=ExploreLimits().timeout,
                    metavar="SECS", help="time budget per (test, model)")
    ap.add_argument("--compare", action="store_true",
                    help="report outcome-set inclusion for each ordered model pair")
    return ap


def _collect_inputs(paths: list[str]) -> tuple[list[tuple[str, str, object]], list[dict]]:
    """Parse every input file into (test name, path, test); collect errors
    without aborting the batch."""
    jobs, errors = [], []
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(p.glob("*.litmus"))
            if not found:
                errors.append({"input": str(p), "message": f"{p}: no .litmus files in directory"})
            files.extend(found)
        else:
            files.append(p)
    for path in files:
        try:
            test = parse_file(path)
        except OSError as exc:
            errors.append({"input": str(path), "message": str(exc)})
            continue
        except LitmusError as exc:
            errors.append({"input": str(path), "message": f"{path}: {exc}"})
            continue
        name = test.name or path.stem
        if not test.name:
            test = test._replace(name=name)
        jobs.append((name, str(path), test))
    return jobs, errors


def _models_for(test, selected) -> tuple[str, ...]:
    if selected:
        return selected
    if test.model_hint in MODEL_IDS:
        return (test.model_hint,)
    return MODEL_IDS


def _witness_lines(report: CheckReport, witness) -> list[str]:
    model = report.result.model
    return [f"{n:3d}. {model.describe_rule(rule)}"
            for n, rule in enumerate(witness, start=1)]


def _result_record(report: CheckReport, source: str, expected, want_witness: bool) -> dict:
    satisfiable = any(v.satisfiable for v in report.verdicts)
    expectation_met = None
    if expected is not None and report.result.complete:
        expectation_met = satisfiable == expected
    record = {
        "test": report.test_name,
        "input": source,
        "model": report.model_id,
        "complete": report.result.complete,
        "pass": report.passed,
        "expected_satisfiable": expected,
        "expectation_met": expectation_met,
        "verdicts": [],
        "outcomes": [o.as_dict() for o in sorted(report.result.outcomes)],
        "stats": {
            "visited": report.result.stats.visited,
            "dedup_hits": report.result.stats.dedup_hits,
            "edges": report.result.stats.edges,
            "max_frontier": report.result.stats.max_frontier,
            "wall_time_s": round(report.result.stats.wall_time, 4),
        },
        "deadlocks": report.result.deadlocked,
    }
    for v in report.verdicts:
        entry = v._asdict()
        if want_witness:
            entry["witness"] = (_witness_lines(report, v.witness)
                                if v.witness is not None else None)
        else:
            del entry["witness"]
        record["verdicts"].append(entry)
    return record


def _ok(record: dict) -> bool:
    """A run counts as good if its corpus expectation (when present) holds,
    otherwise if every check in the file passed."""
    if record["expected_satisfiable"] is not None:
        return bool(record["expectation_met"])
    return record["pass"] is True


def _print_text(records, comparisons, errors, out) -> None:
    for rec in records:
        status = "INCONCLUSIVE" if not rec["complete"] else (
            "ok" if _ok(rec) else "FAIL")
        print(f"=== {rec['test']} [{rec['model']}] {status}  ({rec['input']})", file=out)
        for v in rec["verdicts"]:
            verdict = ("inconclusive" if v["inconclusive"]
                       else "pass" if v["passed"] else "FAIL")
            sat = "satisfiable" if v["satisfiable"] else "unreachable"
            print(f"  check {v['polarity']}: {v['condition']}  -> {sat} [{verdict}]",
                  file=out)
            if v.get("witness"):
                print("  witness:", file=out)
                for line in v["witness"]:
                    print(f"    {line}", file=out)
        if rec["expected_satisfiable"] is not None:
            agree = {True: "agrees", False: "DISAGREES", None: "unknown"}[rec["expectation_met"]]
            print(f"  corpus expectation: satisfiable={rec['expected_satisfiable']}"
                  f" ({agree})", file=out)
        print(f"  outcomes ({len(rec['outcomes'])}):", file=out)
        for o in rec["outcomes"]:
            regs = " ".join(f"{k}={v}" for k, v in o["regs"].items())
            mem = " ".join(f"m[{k}]={v}" for k, v in o["mem"].items())
            print(f"    {regs}  {mem}".rstrip(), file=out)
        s = rec["stats"]
        print(f"  stats: visited={s['visited']} edges={s['edges']} dedup={s['dedup_hits']}"
              f" max_frontier={s['max_frontier']} wall={s['wall_time_s']}s"
              f" deadlocks={rec['deadlocks']}", file=out)
    for cmp_rec in comparisons:
        verdict = {True: "holds", False: "FAILS", None: "unknown"}[cmp_rec["subset"]]
        line = (f"compare {cmp_rec['test']} ({cmp_rec['input']}): outcomes({cmp_rec['left']})"
                f" <= outcomes({cmp_rec['right']}) {verdict}")
        if cmp_rec["counterexample"]:
            line += f"  e.g. {cmp_rec['counterexample']}"
        print(line, file=out)
    for err in errors:
        print(f"error: {err['message']}", file=out)


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    out = sys.stdout

    selected: tuple[str, ...] = ()
    if args.models is not None:  # an empty list is an error, not the default
        # a repeated id runs once, where it first appears
        selected = tuple(dict.fromkeys(m.strip() for m in args.models.split(",") if m.strip()))
        unknown = [m for m in selected if m not in MODEL_IDS]
        if not selected or unknown:
            print(f"error: unknown model(s): {', '.join(unknown) or '(none given)'};"
                  f" choose from {', '.join(MODEL_IDS)}", file=sys.stderr)
            return 3
    if args.compare and len(selected) < 2:
        print("error: --compare needs --models with at least two models",
              file=sys.stderr)
        return 3
    order, seed = "bfs", None
    if os.environ.get(SEED_ENV):
        try:
            order, seed = "random", int(os.environ[SEED_ENV])
        except ValueError:
            print(f"error: {SEED_ENV} must be an integer, got {os.environ[SEED_ENV]!r}",
                  file=sys.stderr)
            return 3

    inputs, errors = _collect_inputs(args.inputs)
    # only the corpus's own tests carry its expectation table, whatever a file's name
    jobs = [(name, source, test, {}) for name, source, test in inputs]
    if args.corpus:
        jobs.extend((e.name, "corpus", e.test, e.expected) for e in corpus_mod.load_corpus())
    if not jobs and not errors:
        print("error: nothing to run (give .litmus files or --corpus)",
              file=sys.stderr)
        return 3

    limits = ExploreLimits(max_states=args.max_states, timeout=args.timeout)

    records = []
    comparisons = []
    jobs.sort(key=lambda job: job[:2])
    for name, source, test, expectations in jobs:
        results = {}
        for model_id in _models_for(test, selected):
            try:
                report = check(test, model_id, limits=limits, order=order,
                               seed=seed, want_witness=args.witness)
            except LitmusError as exc:
                errors.append({"input": source, "message": f"{name}: {exc}"})
                continue
            results[model_id] = report
            expected = expectations.get(model_id)
            records.append(_result_record(report, source, expected, args.witness))
        if args.compare:
            for left in selected:
                for right in selected:
                    if left == right or left not in results or right not in results:
                        continue
                    subset, counterexample = outcome_subset(
                        results[left].result, results[right].result)
                    comparisons.append({
                        "test": name,
                        "input": source,
                        "left": left,
                        "right": right,
                        "subset": subset,
                        "counterexample": (counterexample.as_dict()
                                           if counterexample else None),
                    })

    records.sort(key=lambda r: (r["test"], r["input"], r["model"]))
    if args.format == "json":
        json.dump({"schema_version": SCHEMA_VERSION, "results": records,
                   "comparisons": comparisons, "errors": errors}, out, indent=2)
        out.write("\n")
    else:
        _print_text(records, comparisons, errors, out)
    for err in errors:  # also on stderr, so a redirected report still shows why it exits 3
        print(f"error: {err['message']}", file=sys.stderr)

    if errors:
        return 3
    if any(not _ok(rec) and rec["complete"] for rec in records):
        return 1
    if any(not rec["complete"] for rec in records):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
