"""WMM against `oracle.wmm_outcomes`, an independent transcription of the
paper's machine: PSO's store buffers plus one invalidation buffer per
thread, with no liveness, no memos and nothing from `models/` or `isa`.
Equal outcome sets on the corpus, on the message-passing programs and on
generated programs.  On spin-wait programs, whose state graphs have
cycles, every model also matches its oracle."""

import pytest
from hypothesis import example, given, settings

from i2e_litmus.litmus import bind, parse
from i2e_litmus.models import build_model
from oracle import (TIMESTAMPED, buffered_outcomes, build, explore_complete,
                    interleaving_outcomes, wmm_d_outcomes, wmm_outcomes)
from test_model_chain import MESSAGE_PASSING, STALE_TWICE
from test_stale_liveness import small_programs


# P2's store to a is pending when P1's drains, so P2 is offered no stale
# value for a: once its own store has drained too, its load reads 1
PENDING_STORE = """i2e-litmus v1
thread P1:
  St a 1
  St b 2
thread P2:
  St a 1
  r1 = Ld a
check allowed: r1 = 0 & m[a] = 0
"""


def assert_matches_oracle(test) -> None:
    assert explore_complete(build_model("wmm", test)).outcomes == wmm_outcomes(bind(test))


def test_corpus_matches_oracle(corpus):
    for entry in corpus:
        assert_matches_oracle(entry.test)


@pytest.mark.parametrize("text", MESSAGE_PASSING.values(), ids=MESSAGE_PASSING.keys())
def test_message_passing_matches_oracle(text):
    assert_matches_oracle(parse(text))


@settings(max_examples=100, deadline=None)
@example(STALE_TWICE)
@example(PENDING_STORE)
@given(small_programs())
def test_generated_programs_match_oracle(text):
    assert_matches_oracle(parse(text))


# P1 spins until it reads P2's flag, so every state graph has a cycle.  In
# "own-address" it also loads c, which only it stores to (an unshared
# load), on every turn, and stores to c, which no other thread loads (a
# private drain), once it leaves; in "reconcile" it reconciles on every turn
SPIN_WAITS = {
    "flag": "thread P1:\n  top:\n  r1 = Ld a\n  beqz r1 top\n",
    "own-address": "thread P1:\n  top:\n  r1 = Ld a\n  r2 = Ld c\n  beqz r1 top\n"
                   "  St c 1\n  r3 = Ld c\n",
    "reconcile": "thread P1:\n  top:\n  Reconcile\n  r1 = Ld a\n  beqz r1 top\n  r2 = Ld b\n",
}
ORACLES = {"sc": interleaving_outcomes,
           "tso": lambda bound: buffered_outcomes(bound, per_address=False),
           "pso": lambda bound: buffered_outcomes(bound, per_address=True),
           "wmm": wmm_outcomes, "wmm-d": wmm_d_outcomes, TIMESTAMPED: wmm_d_outcomes}


@pytest.mark.parametrize("model_id", sorted(ORACLES))
@pytest.mark.parametrize("name", sorted(SPIN_WAITS))
def test_spin_waits_match_oracles(name, model_id):
    test = parse("i2e-litmus v1\n" + SPIN_WAITS[name]
                 + "thread P2:\n  St b 1\n  St a 1\ncheck allowed: r1 = 1\n")
    outcomes = ORACLES[model_id](bind(test))
    assert outcomes and all(o.reg("P1", "r1") == 1 for o in outcomes)
    assert explore_complete(build(model_id, test)).outcomes == outcomes
