"""Search, deduplication, witnesses, limits, and verdicts."""

import pytest

from i2e_litmus.explorer import ExploreLimits, check, explore, outcome_subset, replay
from i2e_litmus.litmus import Check, parse
from i2e_litmus.models import MODEL_IDS, RuleInstance, WmmModel, build_model
from i2e_litmus.models.wmm import mem_get
from oracle import explore_audited, explore_complete, timestamped


def reg_projection(outcomes, *keys):
    return {tuple(o.reg(t, r) for t, r in keys) for o in outcomes}


TWO_THREADS = """
i2e-litmus v1
thread P1:
  St a 1
thread P2:
  St b 1
check allowed: m[a] = 1
"""


class TestInitialState:
    def test_dekker(self, corpus_by_name):
        model = build_model("wmm", corpus_by_name["dekker"].test)
        state = model.initial_state()
        assert len(state.procs) == 2
        assert all(p.pc == 0 and p.regs == () and p.sb == () and p.ib == ()
                   for p in state.procs)
        assert model.mem_value(state, "a") == 0
        assert model.mem_value(state, "b") == 0

    def test_init_values_honored(self):
        test = parse("""
i2e-litmus v1
init:
  a = 7
thread P1:
  r1 = Ld a
check allowed: r1 = 7
""")
        for model_id in ("sc", "tso", "wmm", "wmm-d", "wmm-s"):
            model = build_model(model_id, test)
            assert model.mem_value(model.initial_state(), "a") == 7
        report = check(test, "wmm-d", limits=ExploreLimits(max_states=100_000))
        assert report.passed

    def test_timestamped_initial_cell(self, corpus_by_name):
        model = timestamped(corpus_by_name["mp"].test)
        state = model.initial_state()
        assert mem_get(state.m, 0, None) == (0, None, 0, 0)  # a, initially 0
        assert state.gts == 0


class TestIsTerminal:
    def test_pending_store_blocks_termination(self):
        model = build_model("wmm", parse(TWO_THREADS))
        state = model.initial_state()
        done = tuple(p._replace(pc=1) for p in state.procs)
        state = state._replace(procs=done)
        pending = state._replace(procs=(done[0]._replace(sb=((0, 1),)), done[1]))
        assert model.is_terminal(state)
        assert not model.is_terminal(pending)

    def test_stale_values_do_not_block_termination(self):
        model = build_model("wmm", parse(TWO_THREADS))
        state = model.initial_state()
        done = tuple(p._replace(pc=1, ib=((0, 0),)) for p in state.procs)
        assert model.is_terminal(state._replace(procs=done))

    def test_pending_copy_blocks_termination(self, corpus_by_name):
        model = build_model("wmm-s", corpus_by_name["wwc"].test)
        state = model.initial_state()
        lengths = [len(p) for p in model.programs]
        done = tuple(p._replace(pc=n) for p, n in zip(state.procs, lengths))
        state = state._replace(procs=done)
        assert model.is_terminal(state)
        holding = state._replace(procs=(
            done[0]._replace(sb=((0, 2, (0, 0, 0)),)),  # P1's store at pc 0, and a copy
            done[1]._replace(sb=((0, 2, (0, 0, 0)),)),
            done[2],
        ))
        assert not model.is_terminal(holding)
        # only the drain rule is offered: a store is copied only into a
        # processor about to load its address, and every thread has halted
        rules = {r.rule for r in model.enabled(holding)}
        assert rules == {"WMM-S-DeqSb"}


class TestSuccessors:
    def test_two_runnable_threads_two_successors(self):
        model = build_model("sc", parse(TWO_THREADS))
        state = model.initial_state()
        rules = model.enabled(state)
        assert len(rules) == 2
        assert {rule.proc for rule in rules} == {0, 1}
        assert len({model.apply(state, rule) for rule in rules}) == 2

    def test_terminal_state_has_none(self):
        model = build_model("sc", parse(TWO_THREADS))
        state = model.initial_state()
        for rule in (RuleInstance("SC-St", 0), RuleInstance("SC-St", 1)):
            state = model.apply(state, rule)
        assert model.is_terminal(state)
        assert model.enabled(state) == []

    def test_buffered_load_hit_single_choice(self):
        text = """
i2e-litmus v1
thread P1:
  St a 1
  r1 = Ld a
check allowed: r1 = 1
"""
        model = build_model("wmm", parse(text))
        state = model.apply(model.initial_state(), RuleInstance("WMM-St", 0))
        loads = [r for r in model.enabled(state) if r.rule.startswith("WMM-Ld")]
        assert loads == [RuleInstance("WMM-LdSb", 0)]


class TestExplore:
    def test_dekker_outcome_set(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["dekker"], "wmm").outcomes
        assert reg_projection(outcomes, ("P1", "r1"), ("P2", "r2")) == {
            (0, 1), (1, 0), (1, 1)}
        assert {(o.loc("a"), o.loc("b")) for o in outcomes} == {(1, 1)}

    def test_straight_line_program_single_outcome(self):
        result = explore_complete(build_model("wmm", parse("""
i2e-litmus v1
thread P1:
  St a 1
  r1 = Ld a
  r2 = r1 + 1
check allowed: r2 = 2
""")))
        assert len(result.outcomes) == 1
        assert result.complete

    def test_iriw_wmm_s_contains_the_split_reads(self, corpus_by_name, explored):
        outcomes = explored(corpus_by_name["iriw"], "wmm-s").outcomes
        assert (1, 0, 1, 0) in reg_projection(
            outcomes, ("P3", "r1"), ("P3", "r2"), ("P4", "r3"), ("P4", "r4"))

    def test_every_model_is_one_catalog_class(self, corpus_by_name):
        for model_id in MODEL_IDS:
            assert isinstance(build_model(model_id, corpus_by_name["mp"].test), WmmModel)

    def test_no_deadlocks_reported(self, corpus, explored):
        for entry in corpus:
            for model_id in ("sc", "wmm", "wmm-d", "wmm-s"):
                assert explored(entry, model_id).deadlocked == 0

    def test_stats_populated(self, corpus_by_name, explored):
        stats = explored(corpus_by_name["dekker"], "wmm").stats
        assert stats.visited > 0
        assert stats.max_frontier > 0
        assert stats.wall_time >= 0

    @pytest.mark.parametrize("name, model_id", [("dekker", "wmm"), ("wwc", "wmm-s")])
    def test_edges_count_every_firing(self, corpus_by_name, name, model_id):
        """Also: `explore_audited` audits each firing once and leaves no
        shadow of `expand` behind, even when the audit raises."""
        model = build_model(model_id, corpus_by_name[name].test)
        firings = []
        result = explore_audited(model, audit=lambda state, rule, nxt: firings.append(rule))
        assert result.stats.edges == len(firings)
        assert "expand" not in vars(model)

        def audit(state, rule, nxt):
            raise RuntimeError("audit failed")

        with pytest.raises(RuntimeError, match="audit failed"):
            explore_audited(model, audit=audit)
        assert "expand" not in vars(model)
        assert explore_complete(model).stats.edges == len(firings)
        with pytest.raises(AssertionError, match="cut short"):  # an audited search must complete
            explore_audited(model, ExploreLimits(max_states=2), audit=lambda *edge: None)


class TestCanonicalKey:
    def test_stable_for_identical_states(self, corpus_by_name):
        model = build_model("wmm", corpus_by_name["mp"].test)
        a = model.initial_state()
        b = model.initial_state()
        assert model.canonical_key(a) == model.canonical_key(b)

    @staticmethod
    def interval_variants(model):
        """Two initial states whose only difference is the [tsL, tsU] of
        one stale value."""
        state = model.initial_state()
        one, two = (state._replace(procs=(
            state.procs[0]._replace(ib=((0, 0, 0, ts_upper),)),) + state.procs[1:])
            for ts_upper in (1, 2))
        return one, two

    def test_interval_differences_split_states(self, corpus_by_name):
        # P2's second load reads its address from a register
        model = build_model("wmm-d", corpus_by_name["load-value-prediction"].test)
        one, two = self.interval_variants(model)
        assert model.canonical_key(one) != model.canonical_key(two)


class TestOrderInvariance:
    @pytest.mark.parametrize("name", ["dekker", "wwc", "mp-no-reconcile"])
    def test_orders_agree(self, corpus_by_name, explored, name):
        entry = corpus_by_name[name]
        for model_id in ("wmm", "wmm-s"):
            bfs = explored(entry, model_id, order="bfs").outcomes
            dfs = explored(entry, model_id, order="dfs").outcomes
            rnd = explored(entry, model_id, order="random", seed=1234).outcomes
            assert bfs == dfs == rnd


class TestWitnesses:
    def test_every_outcome_replays(self, corpus_by_name, explored):
        for name in ("dekker-no-reconcile-p1", "wwc", "load-value-prediction"):
            entry = corpus_by_name[name]
            for model_id in ("wmm", "wmm-s"):
                result = explored(entry, model_id)
                model = build_model(model_id, entry.test)
                for outcome in result.outcomes:
                    _, replayed = replay(model, result.witness(outcome))
                    assert replayed == outcome

    def test_replay_rejects_disabled_rules(self, corpus_by_name):
        model = build_model("wmm", corpus_by_name["dekker"].test)
        with pytest.raises(ValueError, match="not enabled"):
            replay(model, [RuleInstance("WMM-Com", 0)])

    def test_replay_rejects_a_witness_with_one_instance_swapped(self, corpus_by_name, explored):
        entry = corpus_by_name["dekker"]
        result = explored(entry, "wmm")
        witness = list(result.witness(max(result.outcomes)))
        model = build_model("wmm", entry.test)
        replay(model, witness)
        k = next(n for n, rule in enumerate(witness) if rule.rule == "WMM-DeqSb")
        # a store to an address that no store buffer holds
        witness[k] = witness[k]._replace(payload=(max(model.addr_map.values()) + 1,))
        with pytest.raises(ValueError, match="not enabled"):
            replay(model, witness)


class TestLimits:
    def test_tiny_state_budget_is_inconclusive(self, corpus_by_name):
        report = check(corpus_by_name["dekker"].test, "wmm",
                       limits=ExploreLimits(max_states=2))
        assert not report.result.complete
        (verdict,) = report.verdicts
        assert verdict.inconclusive
        assert verdict.passed is None
        assert report.passed is None

    def test_partial_set_with_witness_is_definitive(self):
        # P1 counts without bound while a = 0, so no search ever completes;
        # r1 = 1 is reached within a few steps of P2's store
        test = parse("""
i2e-litmus v1
thread P1:
  loop:
  r1 = r1 + 1
  r2 = Ld a
  beqz r2 loop
thread P2:
  St a 1
check allowed: r1 = 1
""")
        limits = ExploreLimits(max_states=200)
        report = check(test, "wmm-s", limits=limits)
        assert not report.result.complete
        (verdict,) = report.verdicts
        assert verdict.satisfiable
        assert verdict.passed is True          # allowed + witnessed
        assert not verdict.inconclusive
        # the same partial witness definitively fails a forbidden check
        flipped = test._replace(checks=(Check("forbidden", test.checks[0].cond),))
        report = check(flipped, "wmm-s", limits=limits)
        assert report.verdicts[0].passed is False
        assert report.passed is False

    def test_unsatisfied_partial_forbidden_stays_open(self, corpus_by_name):
        report = check(corpus_by_name["dekker"].test, "wmm",
                       limits=ExploreLimits(max_states=3))
        (verdict,) = report.verdicts
        assert not verdict.satisfiable
        assert verdict.inconclusive

    def test_looping_program_degrades_to_inconclusive(self):
        # an unbounded counter loop can never be fully explored; the limit
        # must surface as INCONCLUSIVE rather than a verdict
        test = parse("""
i2e-litmus v1
thread P1:
  loop:
  r1 = r1 + 1
  beqz r2 loop
check forbidden: r1 = 0
""")
        report = check(test, "sc", limits=ExploreLimits(max_states=100))
        assert not report.result.complete
        assert report.verdicts[0].inconclusive
        assert report.passed is None


class TestComparisons:
    def test_subset_and_counterexample(self, corpus_by_name, explored):
        entry = corpus_by_name["wwc"]
        wmm = explored(entry, "wmm")
        wmm_s = explored(entry, "wmm-s")
        ok, counter = outcome_subset(wmm, wmm_s)
        assert ok is True and counter is None
        bad, counter = outcome_subset(wmm_s, wmm)
        assert bad is False
        assert counter in wmm_s.outcomes and counter not in wmm.outcomes

    def test_incomplete_comparison_is_unknown(self, corpus_by_name, explored):
        entry = corpus_by_name["dekker"]
        partial = explore(build_model("wmm", entry.test),
                          limits=ExploreLimits(max_states=2))
        ok, counter = outcome_subset(partial, explored(entry, "wmm"))
        assert ok is None and counter is None
