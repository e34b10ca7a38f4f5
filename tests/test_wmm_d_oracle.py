"""WMM-D against `oracle.wmm_d_outcomes`, an independent transcription of
the paper's WMM-D machine.  It keeps each processor's Reconcile time
rts, which the library leaves out (see `wmm_d.py`), and shares nothing
with `models/` or `isa`.  Equal outcome sets: `build_model("wmm-d", ...)`
on the corpus, the timestamped machine built directly on the
message-passing programs, and both machines on generated programs whose
loads may read their address through a register (`address_dependent`)
and on hand-written address-dependency shapes."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from i2e_litmus.litmus import bind, parse
from i2e_litmus.models import build_model
from oracle import explore_complete, timestamped, wmm_d_outcomes, wmm_outcomes
from test_model_chain import MESSAGE_PASSING
from test_stale_liveness import small_programs

_LOAD = re.compile(r"(\s+)(r\d+) = Ld (.+)")


def address_dependent(text: str, pick=lambda: True) -> str:
    """text with each load of a named address x that follows a load in its
    thread rewritten, where pick() says so, to `Ld x + rK - rK`, rK the
    register its thread loaded last: the same address, now read through a
    register that carries that load's timestamp."""
    lines, loaded = [], None
    for line in text.splitlines():
        if line.startswith("thread "):
            loaded = None
        load = _LOAD.fullmatch(line)
        if load:
            indent, dst, addr = load.groups()
            if loaded and addr.isalpha() and pick():
                line = f"{indent}{dst} = Ld {addr} + {loaded} - {loaded}"
            loaded = dst
        lines.append(line)
    return "\n".join(lines) + "\n"


WRITER = "thread P1:\n  St a 1\n  Commit\n  St b 1\n"
# each reader's last load reads a through a register a load before it wrote
SHAPES = {
    # forbidden under WMM-D: b's new value is stamped later than a's old
    # value died
    "mp+addr": WRITER + "thread P2:\n  r1 = Ld b\n  r2 = Ld a + r1 - r1\n"
                        "check forbidden: r1 = 1 & r2 = 0\n",
    # the address register is stamped after a Reconcile, the stale value
    # of a offered after it
    "mp+reconcile+addr": "thread P1:\n  St a 1\n  Commit\n  St b 1\n  St a 2\n"
                         "thread P2:\n  r1 = Ld b\n  Reconcile\n  r2 = Ld c\n"
                         "  r3 = Ld a + r2 - r2\ncheck allowed: r1 = 1 & r3 = 1 & m[a] = 2\n",
    # P2 reads its own store back from memory: stamped with its creation
    # time, 0, so a's stale value stays readable
    "own-store+addr": WRITER + "thread P2:\n  r1 = Ld b\n  St c 1\n  Commit\n  r2 = Ld c\n"
                               "  r3 = Ld a + r2 - r2\ncheck allowed: r1 = 1 & r3 = 0\n",
    # the dependent load only behind a branch on the loaded register
    "ctrl+addr": WRITER + "thread P2:\n  r1 = Ld b\n  beqz r1 out\n  r2 = Ld a + r1 - r1\n"
                          "  out:\ncheck forbidden: r1 = 1 & r2 = 0\n",
    # write-to-read causality: P2 passes a's value on through b
    "wrc+addr": "thread P1:\n  St a 1\nthread P2:\n  r1 = Ld a\n  St b r1\n"
                "thread P3:\n  r2 = Ld b\n  r3 = Ld a + r2 - r2\n"
                "check forbidden: r1 = 1 & r2 = 1 & r3 = 0\n",
}
SHAPES = {name: f"i2e-litmus v1\nname: {name}\n{body}" for name, body in SHAPES.items()}


def assert_matches_oracle(test) -> None:
    """build_model's WMM-D machine and the timestamped one reach the
    oracle's outcomes."""
    expected = wmm_d_outcomes(bind(test))
    for model in (build_model("wmm-d", test), timestamped(test)):
        assert explore_complete(model).outcomes == expected, type(model).__name__


def test_corpus_matches_oracle(corpus):
    for entry in corpus:
        assert explore_complete(build_model("wmm-d", entry.test)).outcomes \
            == wmm_d_outcomes(bind(entry.test)), entry.name


@pytest.mark.parametrize("text", MESSAGE_PASSING.values(), ids=MESSAGE_PASSING.keys())
def test_timestamped_message_passing_matches_oracle(text):
    test = parse(text)
    assert explore_complete(timestamped(test)).outcomes == wmm_d_outcomes(bind(test))


def test_an_address_dependency_orders_message_passing():
    """The oracle's ats <= tsU guard at work: WMM allows mp+addr's outcome,
    WMM-D does not."""
    bound = bind(parse(SHAPES["mp+addr"]))
    reached = {(o.reg("P2", "r1"), o.reg("P2", "r2")) for o in wmm_d_outcomes(bound)}
    allowed = {(o.reg("P2", "r1"), o.reg("P2", "r2")) for o in wmm_outcomes(bound)}
    assert (1, 0) in allowed - reached


@settings(max_examples=60, deadline=None)
@example(SHAPES["mp+addr"], [])
@example(SHAPES["mp+reconcile+addr"], [])
@example(SHAPES["own-store+addr"], [])
@example(SHAPES["ctrl+addr"], [])
@example(SHAPES["wrc+addr"], [])
@given(small_programs(), st.lists(st.booleans(), max_size=6))
def test_generated_programs_match_oracle(text, picks):
    """Each load that may read its address through a register does where
    the next of picks is True."""
    picks = iter(picks)
    assert_matches_oracle(parse(address_dependent(text, lambda: next(picks, False))))
