"""The models nest: sc ⊆ tso ⊆ pso ⊆ wmm ⊆ wmm-s and wmm-d ⊆ wmm, by
outcome set.  WMM-D is WMM with timestamps that enforce dependencies
(its only extra guard is ats <= tsU), so it may only remove outcomes.
Checked on generated programs, on every message-passing program of up
to three loads, and on `stale-twice`, whose outcome needs one stale
value read twice."""

from itertools import product

import pytest
from hypothesis import example, given, settings

from i2e_litmus.litmus import parse
from i2e_litmus.models import MODEL_IDS, build_model
from oracle import explore_complete
from test_stale_liveness import small_programs

CHAIN = ("sc", "tso", "pso", "wmm", "wmm-s")

# P2 sees b's new value, then a's old one twice: both loads of a read the
# stale value that P1's store to a left in P2's invalidation buffer
STALE_TWICE = """i2e-litmus v1
name: stale-twice
thread P1:
  St a 1
  Commit
  St b 1
thread P2:
  r0 = Ld b
  r1 = Ld a
  r3 = Ld a
check allowed: r0 = 1 & r1 = 0 & r3 = 0
"""


def message_passing() -> dict[str, str]:
    """The 28 message-passing programs: the writer `St a 1; [Commit;]
    St b 2`, and a reader of one to three loads over a and b."""
    programs = {}
    for fence in ("", "Commit"):
        for n in (1, 2, 3):
            for addrs in product("ab", repeat=n):
                writer = ["St a 1"] + [fence] * bool(fence) + ["St b 2"]
                reader = [f"r{k} = Ld {addr}" for k, addr in enumerate(addrs, start=1)]
                name = "mp" + "-commit" * bool(fence) + "-" + "".join(addrs)
                programs[name] = "\n".join(
                    ["i2e-litmus v1", f"name: {name}", "thread P1:"]
                    + [f"  {ins}" for ins in writer] + ["thread P2:"]
                    + [f"  {ins}" for ins in reader]
                    # an outcome observes the registers its check names
                    + ["check allowed: " + " & ".join(f"r{k} = 0" for k in range(1, n + 1)),
                       ""])
    return programs


MESSAGE_PASSING = message_passing()


def outcome_sets(text: str) -> dict:
    test = parse(text)
    return {model_id: explore_complete(build_model(model_id, test)).outcomes
            for model_id in MODEL_IDS}


def assert_models_nest(text: str) -> None:
    outcomes = outcome_sets(text)
    for stronger, weaker in zip(CHAIN, CHAIN[1:]):
        assert outcomes[stronger] <= outcomes[weaker], (stronger, weaker)
    assert outcomes["wmm-d"] <= outcomes["wmm"], ("wmm-d", "wmm")


@pytest.mark.parametrize("text", MESSAGE_PASSING.values(), ids=MESSAGE_PASSING.keys())
def test_models_nest_on_message_passing(text):
    assert_models_nest(text)


@settings(max_examples=300, deadline=None)
@example(STALE_TWICE)
@given(small_programs())
def test_models_nest_on_generated_programs(text):
    assert_models_nest(text)


def test_stale_twice_reads_one_stale_value_twice():
    """Reachable exactly under the models with invalidation buffers."""
    outcomes = outcome_sets(STALE_TWICE)
    for model_id in MODEL_IDS:
        reached = any((o.reg("P2", "r0"), o.reg("P2", "r1"), o.reg("P2", "r3")) == (1, 0, 0)
                      for o in outcomes[model_id])
        assert reached == (model_id in ("wmm", "wmm-d", "wmm-s")), model_id
