"""The litmus corpus: one ``<name>.litmus`` file per test in this package.

Each file holds the test source.  The table below gives, per test and
model, whether its final-state condition is reachable (satisfiable by
some terminal outcome).  The `check allowed:`/`check forbidden:` line
inside the source states the headline claim for the test's `model:`
hint; the per-model table is what `--corpus` runs are judged against.

Several tests store an address *as data* (``St b a``) and then compare
a register against that address in the condition.  Their init sections
deliberately list a harmless location first so the interesting address
does not bind to base 0, which the initial memory value would alias.
"""

from __future__ import annotations

from importlib.resources import files
from typing import NamedTuple

from ..litmus import LitmusError, LitmusTest, parse, record


@record
class CorpusEntry(NamedTuple):
    name: str
    text: str
    expected: dict[str, bool]  # model id -> condition satisfiable
    test: LitmusTest


def _expect(sc=False, tso=False, pso=False, wmm=False, wmm_d=False, wmm_s=False):
    return {"sc": sc, "tso": tso, "pso": pso,
            "wmm": wmm, "wmm-d": wmm_d, "wmm-s": wmm_s}


_EXPECTED = {
    # -- mutual exclusion --------------------------------------------------
    "dekker": _expect(),
    "dekker-nofence": _expect(tso=True, pso=True, wmm=True, wmm_d=True, wmm_s=True),
    "dekker-no-commit-p1": _expect(tso=True, pso=True, wmm=True, wmm_d=True, wmm_s=True),
    "dekker-no-reconcile-p1": _expect(wmm=True, wmm_d=True, wmm_s=True),
    "dekker-no-commit-p2": _expect(tso=True, pso=True, wmm=True, wmm_d=True, wmm_s=True),
    "dekker-no-reconcile-p2": _expect(wmm=True, wmm_d=True, wmm_s=True),
    # -- message passing ---------------------------------------------------
    "mp": _expect(),
    "mp-no-commit": _expect(pso=True, wmm=True, wmm_d=True, wmm_s=True),
    "mp-no-reconcile": _expect(wmm=True, wmm_d=True, wmm_s=True),
    "mp-nofence": _expect(pso=True, wmm=True, wmm_d=True, wmm_s=True),
    # -- coherence ----------------------------------------------------------
    "corr": _expect(),
    "thin-air": _expect(),
    # -- speculation -------------------------------------------------------
    "mem-dep-prediction": _expect(wmm=True, wmm_d=True, wmm_s=True),
    "load-value-prediction": _expect(wmm=True, wmm_s=True),
    "transitive-dep": _expect(wmm=True, wmm_s=True),
    "transitive-dep-mod": _expect(wmm=True, wmm_d=True, wmm_s=True),
    "rsw": _expect(wmm=True, wmm_d=True, wmm_s=True),
    "rmo-speculation": _expect(wmm=True, wmm_d=True, wmm_s=True),
    # -- store atomicity ----------------------------------------------------
    "wwc": _expect(wmm_s=True),
    "wwc-commit": _expect(),
    "iriw": _expect(wmm_s=True),
    "iriw-commit": _expect(),
}


def corpus_test(name: str) -> CorpusEntry:
    """Read and parse ``<name>.litmus``; a name with no table row is a KeyError."""
    expected = _EXPECTED[name]
    text = files(__name__).joinpath(f"{name}.litmus").read_text(encoding="utf-8")
    test = parse(text)
    if test.name != name:
        raise LitmusError(f"{name}.litmus declares name {test.name!r}")
    return CorpusEntry(name, text, expected, test)


def load_corpus() -> list[CorpusEntry]:
    """Every corpus test, in table order, with its per-model expectations."""
    return [corpus_test(name) for name in _EXPECTED]
