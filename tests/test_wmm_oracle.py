"""WMM against `oracle.wmm_outcomes`, an independent transcription of the
paper's machine: PSO's store buffers plus one invalidation buffer per
thread, with no liveness, no memos and nothing from `models/` or `isa`.
Equal outcome sets on the corpus, on the message-passing programs and on
generated programs."""

import pytest
from hypothesis import example, given, settings

from i2e_litmus.litmus import bind, parse
from i2e_litmus.models import build_model
from oracle import explore_complete, wmm_outcomes
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
