"""Executable operational memory models with an exhaustive litmus-test explorer.

Six models share one interface: sc, tso, pso, wmm, wmm-d, and wmm-s.
Parse a litmus test, build a model for it, and explore every reachable
terminal outcome::

    from i2e_litmus import check, corpus_test

    report = check(corpus_test("dekker").test, "wmm")
    assert report.passed
"""

from .corpus import corpus_test, load_corpus
from .explorer import (CheckReport, ExploreLimits, ExploreResult, Verdict,
                       check, explore, outcome_subset, replay)
from .litmus import (LitmusError, LitmusParseError, LitmusTest, Outcome,
                     bind, eval_condition, format_test, parse, parse_file)
from .models import MODEL_IDS, build_model

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "ExploreLimits", "ExploreResult", "Verdict",
    "LitmusError", "LitmusParseError", "LitmusTest", "Outcome",
    "MODEL_IDS", "__version__", "bind", "build_model",
    "check", "corpus_test", "eval_condition", "explore", "format_test",
    "load_corpus", "outcome_subset", "parse", "parse_file", "replay",
]
