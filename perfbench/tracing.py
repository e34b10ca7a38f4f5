"""Outside-in tracing: spans and counters recorded around library calls.

Nothing in the library changes.  `Tracer.instrument` shadows a model
instance's `enabled`, `apply`, `canonical_key` and `is_terminal` with
timed wrappers, and `patch_isa` swaps the module functions
`isa.decode*`/`isa.execute*` for timed ones until the returned restore
function runs.  The benchmark opens coarse spans (`explorer.explore`,
`explorer.witness`, `explorer.replay`, `litmus.eval_condition`) around
its own calls into the library.

Every span keeps a running total of the time its children covered, so
a layer's self time is its duration minus that total.  Coarse spans are
kept in memory and written out when the run ends.  The per-call method
and isa spans run millions of times per pass; they are folded into
per-layer totals as they close instead of being stored one by one.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()   # edges, states, rule firings, ...
        self.spans: list[tuple] = []       # (name, pair, start, end, parent)
        self.pair_counts: dict[str, dict] = {}  # pair -> counts of its exploration
        self.pair = ""
        self._open: list[str] = []
        self._child_s: list[float] = []    # time covered by children, per open span
        self._exploring = False
        self._successors: set = set()      # keys produced from the state being expanded

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        self._child_s.append(0.0)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._close(name, end - start, end - start)
            self._open.pop()
            self.spans.append((name, self.pair, start, end, parent))

    @contextmanager
    def exploring(self):
        """Count work (states, edges, rule firings) only inside `explore`."""
        self._exploring = True
        self._successors = set()
        before = self.counts.copy()
        try:
            with self.span("explorer.explore"):
                yield
        finally:
            self._exploring = False
            self.pair_counts[self.pair] = dict(self.counts - before)

    def _close(self, layer: str, own: float, covered: float) -> None:
        """`own` is the layer's duration; `covered` is what the parent
        should subtract (own plus any bookkeeping the wrapper did)."""
        self.self_s[layer] += own - self._child_s.pop()
        self.total_s[layer] += own
        self.calls[layer] += 1
        if self._child_s:
            self._child_s[-1] += covered

    def timed(self, layer: str, fn, after=None):
        child_s = self._child_s

        def traced(*args):
            child_s.append(0.0)
            start = _clock()
            try:
                result = fn(*args)
            except BaseException:
                self._close(layer, _clock() - start, _clock() - start)
                raise
            end = _clock()
            if after is not None:
                after(args, result)
            self._close(layer, end - start, _clock() - start)
            return result

        return traced

    # -- library hooks ---------------------------------------------------

    def instrument(self, model, model_id: str) -> None:
        layer = f"models.{model_id}."
        counts = self.counts

        def after_enabled(args, rules):
            if self._exploring:
                self._successors = set()

        def after_apply(args, successor):
            if self._exploring:
                counts["edges"] += 1
                counts[f"{layer}rule.{args[1].rule}"] += 1

        def after_key(args, key):
            if self._exploring:
                if key in self._successors:
                    counts["dup_successor_edges"] += 1
                else:
                    self._successors.add(key)

        def after_terminal(args, terminal):
            if self._exploring:
                counts["states"] += 1

        model.enabled = self.timed(layer + "enabled", model.enabled, after_enabled)
        model.apply = self.timed(layer + "apply", model.apply, after_apply)
        model.canonical_key = self.timed(layer + "canonical_key", model.canonical_key, after_key)
        model.is_terminal = self.timed(layer + "is_terminal", model.is_terminal, after_terminal)

    def patch_isa(self, isa):
        """Time every `isa.decode*`/`isa.execute*` call; returns the undo."""
        saved = {name: getattr(isa, name) for name in dir(isa)
                 if name.startswith(("decode", "execute"))}
        for name, fn in saved.items():
            layer = "isa.decode" if name.startswith("decode") else "isa.execute"
            setattr(isa, name, self.timed(layer, fn))

        def restore():
            for name, fn in saved.items():
                setattr(isa, name, fn)
        return restore


class NullTracer:
    """Stands in for `Tracer` in untraced runs, which report end-to-end metrics."""

    pair = ""

    def span(self, name: str):
        return nullcontext()

    def exploring(self):
        return nullcontext()

    def instrument(self, model, model_id: str) -> None:
        pass
