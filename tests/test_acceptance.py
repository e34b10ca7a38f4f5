"""Acceptance suite: the verdict regression table plus the property criteria.

Each test prints one `PASS criterion NN: ...` line (run with `-s` to see
them); a failing criterion prints FAIL and raises.
"""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

from i2e_litmus import isa
from i2e_litmus.explorer import replay
from i2e_litmus.litmus import bind, eval_condition
from i2e_litmus.models import MODEL_IDS, RuleInstance, build_model
from oracle import (buffered_outcomes, check_invariants, explore_audited, interleaving_outcomes,
                    timestamped)

WMM_FAMILY = ("wmm", "wmm-d", "wmm-s")


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:02d}: {description}")
        raise
    print(f"PASS criterion {number:02d}: {description}")


@pytest.fixture(scope="module")
def reachable(corpus_by_name, explored):
    """reachable(name, model) -> is the test's condition satisfiable?"""

    def go(name, model_id):
        entry = corpus_by_name[name]
        result = explored(entry, model_id)
        assert result.complete, (name, model_id)
        assert result.deadlocked == 0, (name, model_id)
        cond = bind(entry.test).checks[0].cond
        return any(eval_condition(cond, o) for o in result.outcomes)

    return go


def test_criterion_01_dekker(reachable):
    with criterion(1, "Dekker with 4 fences forbidden under wmm; "
                      "removing any one fence re-enables it"):
        assert not reachable("dekker", "wmm")
        for variant in ("dekker-no-commit-p1", "dekker-no-reconcile-p1",
                        "dekker-no-commit-p2", "dekker-no-reconcile-p2"):
            assert reachable(variant, "wmm"), variant


def test_criterion_02_message_passing(reachable):
    with criterion(2, "MP forbidden under wmm; reachable without either fence"):
        assert not reachable("mp", "wmm")
        assert reachable("mp-no-commit", "wmm")
        assert reachable("mp-no-reconcile", "wmm")


def test_criterion_03_corr(reachable):
    with criterion(3, "CoRR forbidden under wmm"):
        assert not reachable("corr", "wmm")


def test_criterion_04_thin_air(reachable):
    with criterion(4, "thin-air values never materialize under wmm"):
        assert not reachable("thin-air", "wmm")


def test_criterion_05_memory_dependency_prediction(reachable):
    with criterion(5, "memory-dependency prediction allowed under wmm and wmm-d"):
        assert reachable("mem-dep-prediction", "wmm")
        assert reachable("mem-dep-prediction", "wmm-d")


def test_criterion_06_load_value_prediction(reachable):
    with criterion(6, "load-value prediction allowed under wmm, forbidden under wmm-d"):
        assert reachable("load-value-prediction", "wmm")
        assert not reachable("load-value-prediction", "wmm-d")


def test_criterion_07_transitive_dependency(reachable):
    with criterion(7, "transitive data dependency forbidden under wmm-d; "
                      "literal-store variant with Commit reachable"):
        assert not reachable("transitive-dep", "wmm-d")
        assert reachable("transitive-dep-mod", "wmm-d")


def test_criterion_08_rsw(reachable):
    with criterion(8, "read-from-same-write reordering allowed under wmm-d"):
        assert reachable("rsw", "wmm-d")


def test_criterion_09_control_speculation(reachable):
    with criterion(9, "speculation past a conditional exit allowed under wmm-d"):
        assert reachable("rmo-speculation", "wmm-d")


def test_criterion_10_wwc(reachable):
    with criterion(10, "WWC forbidden under wmm, allowed under wmm-s, "
                       "forbidden again with a Commit"):
        assert not reachable("wwc", "wmm")
        assert reachable("wwc", "wmm-s")
        assert not reachable("wwc-commit", "wmm-s")


def test_criterion_11_iriw(reachable):
    with criterion(11, "IRIW forbidden under wmm, allowed under wmm-s, "
                       "forbidden with Commits before the Reconciles"):
        assert not reachable("iriw", "wmm")
        assert reachable("iriw", "wmm-s")
        assert not reachable("iriw-commit", "wmm-s")


def test_criterion_12_strong_model_sanity(reachable, corpus_by_name):
    with criterion(12, "fence-free Dekker splits sc/tso; fence-free MP splits tso/pso"):
        assert not reachable("dekker-nofence", "sc")
        assert reachable("dekker-nofence", "tso")
        assert not reachable("mp-nofence", "tso")
        assert reachable("mp-nofence", "pso")
        # independent evidence: the oracle agrees on the sc side, and the
        # classic interleavings replay as hand-written witnesses
        bound = bind(corpus_by_name["dekker-nofence"].test)
        cond = bound.checks[0].cond
        assert not any(eval_condition(cond, o)
                       for o in interleaving_outcomes(bound))
        tso = build_model("tso", corpus_by_name["dekker-nofence"].test)
        _, outcome = replay(tso, (
            RuleInstance("TSO-St", 0), RuleInstance("TSO-St", 1),
            RuleInstance("TSO-Ld", 0), RuleInstance("TSO-Ld", 1),
            RuleInstance("TSO-DeqSb", 0), RuleInstance("TSO-DeqSb", 1)))
        assert eval_condition(cond, outcome)
        pso = build_model("pso", corpus_by_name["mp-nofence"].test)
        _, outcome = replay(pso, (
            RuleInstance("TSO-St", 0), RuleInstance("TSO-St", 0),
            RuleInstance("PSO-DeqSb", 0, (1024,)),
            RuleInstance("TSO-Ld", 1), RuleInstance("TSO-Ld", 1),
            RuleInstance("PSO-DeqSb", 0, (0,))))
        assert eval_condition(bind(corpus_by_name["mp-nofence"].test).checks[0].cond,
                              outcome)


def test_criterion_13_cross_model_inclusion(corpus, explored):
    chain = ("sc", "tso", "pso", "wmm", "wmm-s")
    with criterion(13, "outcome inclusion sc<=tso<=pso<=wmm<=wmm-s and "
                       "wmm-d<=wmm on every corpus test"):
        for entry in corpus:
            sets = {m: explored(entry, m).outcomes for m in MODEL_IDS}
            for weaker, stronger in zip(chain, chain[1:]):
                assert sets[weaker] <= sets[stronger], (entry.name, weaker, stronger)
            assert sets["wmm-d"] <= sets["wmm"], entry.name


def test_criterion_14_per_location_sc(corpus, explored):
    with criterion(14, "single-address corpus tests: wmm outcomes equal sc outcomes"):
        single = [e for e in corpus if len(bind(e.test).addr_map) == 1]
        assert single, "corpus must contain a single-address test"
        assert any(e.name == "corr" for e in single)
        for entry in single:
            assert (explored(entry, "wmm").outcomes
                    == explored(entry, "sc").outcomes), entry.name


def _timestamp_audit(model):
    def audit(state, rule, nxt):
        check_invariants(model, nxt)
        assert nxt.gts - state.gts == (1 if rule.rule == "WMM-D-DeqSb" else 0)
        if rule.rule in ("WMM-D-LdSb", "WMM-D-LdMem", "WMM-D-LdIb"):
            proc_before = state.procs[rule.proc]
            dins, sources = isa.decode(model.decoded[rule.proc], proc_before)
            ats = max((isa.reg_get(proc_before.regs, r, (0, 0))[1] for r in sources),
                      default=0)
            _, ts = isa.reg_get(nxt.procs[rule.proc].regs, dins.dst, (0, 0))
            assert ts >= ats
            assert ts >= proc_before.rts
            if rule.rule == "WMM-D-LdIb":
                entry = isa.ib_entries(proc_before.ib, dins.a)[rule.payload[0]]
                assert ts <= entry[3]  # never outlive the overwrite time
    return audit


def test_criterion_15_structural_invariants(corpus):
    with criterion(15, "sb/ib exclusion, coherence acyclicity, interval and "
                       "clock invariants hold after every transition"):
        for entry in corpus:
            for model_id in ("wmm", "wmm-d", "wmm-s"):
                model = build_model(model_id, entry.test)
                result = explore_audited(model,
                                         audit=lambda s, r, n, m=model: check_invariants(m, n))
                assert result.complete, (entry.name, model_id)
            # the clocks, on every test: build_model keeps them only where
            # a load's address reads a register
            model = timestamped(entry.test)
            result = explore_audited(model, audit=_timestamp_audit(model))
            assert result.complete, (entry.name, "wmm-d")


def test_criterion_16_order_invariance(corpus, explored):
    with criterion(16, "bfs, dfs, and seeded-random exploration yield "
                       "identical outcome sets on every corpus test"):
        for entry in corpus:
            for model_id in MODEL_IDS:
                bfs = explored(entry, model_id, order="bfs").outcomes
                dfs = explored(entry, model_id, order="dfs").outcomes
                rnd = explored(entry, model_id, order="random", seed=20260808).outcomes
                assert bfs == dfs == rnd, (entry.name, model_id)


def test_criterion_17_witness_replay(corpus, explored):
    with criterion(17, "every emitted witness replays to its claimed outcome"):
        checked = 0
        for entry in corpus:
            for model_id in MODEL_IDS:
                result = explored(entry, model_id)
                model = build_model(model_id, entry.test)
                for outcome in result.outcomes:
                    _, replayed = replay(model, result.witness(outcome))
                    assert replayed == outcome, (entry.name, model_id)
                    checked += 1
        assert checked > 100


def test_criterion_18_sc_equals_interleaving_oracle(corpus, explored):
    with criterion(18, "sc outcome sets equal the buffer-free interleaving "
                       "oracle on corpus tests of <= 8 instructions"):
        compared = 0
        for entry in corpus:
            if entry.test.instruction_count() > 8:
                continue
            engine = explored(entry, "sc").outcomes
            assert engine == interleaving_outcomes(bind(entry.test)), entry.name
            compared += 1
        assert compared >= 10


def test_criterion_19_tso_pso_equal_buffered_oracle(corpus, explored):
    with criterion(19, "tso and pso outcome sets equal the store-buffer "
                       "interleaving oracle on every corpus test"):
        for entry in corpus:
            bound = bind(entry.test)
            for model_id, per_address in (("tso", False), ("pso", True)):
                engine = explored(entry, model_id).outcomes
                assert engine == buffered_outcomes(bound, per_address), (entry.name, model_id)


def benchmark_rules() -> dict:
    """`RULES` of perfbench/run.py: the rule ids whose firings it counts, per model."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(perfbench))  # run.py imports its sibling modules
    sys.modules[spec.name] = run  # its dataclasses look their module up
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(perfbench))
        del sys.modules[spec.name]
    return run.RULES


def test_fired_rules_are_counted_by_the_benchmark(corpus):
    """A renamed rule would otherwise zero a per-layer count silently."""
    rules = benchmark_rules()
    for model_id in MODEL_IDS:
        fired = set()
        for entry in corpus:
            explore_audited(build_model(model_id, entry.test),
                            audit=lambda state, rule, nxt: fired.add(rule.rule))
        assert fired <= set(rules[model_id]), (model_id, fired - set(rules[model_id]))


def test_corpus_expectation_table(corpus, explored):
    """Every annotated cell of the corpus table matches the engine."""
    for entry in corpus:
        cond = bind(entry.test).checks[0].cond
        for model_id, expected in sorted(entry.expected.items()):
            result = explored(entry, model_id)
            assert result.complete
            satisfiable = any(eval_condition(cond, o) for o in result.outcomes)
            assert satisfiable == expected, (entry.name, model_id)
