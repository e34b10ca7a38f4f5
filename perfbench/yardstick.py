"""A fixed pure-Python search, timed all through a run, that times are scaled by.

The host this benchmark was written on shares its cores: for stretches of
seconds to minutes, all Python code runs up to twice as slow, and a run
can sit entirely inside such a stretch.  No statistic over one run's own
samples removes that.  The yardstick does: it is a breadth-first search
over tuple states with a seen-set, like the library's explorer, but it
is part of the benchmark and no change to the library moves it.  It is
timed at most every YARDSTICK_EVERY_S: between pairs, and inside an
exploration from the model's `is_terminal`, so that a pair that runs
for seconds is scaled by how fast the host ran while it did.  The time
spent on it is left out of the pair's time.  Each measured span (a
pair, a set-up) is reported as

    measured time * NOMINAL_S / median yardstick time around the span

that is, in seconds of a host on which the yardstick takes NOMINAL_S.
NOMINAL_S is close to its uncontended time on that host, so there the
scaled figures read close to wall time.
"""

from __future__ import annotations

import bisect
import statistics
import time

_clock = time.perf_counter

NOMINAL_S = 0.005
YARDSTICK_EVERY_S = 0.1
NEAR_S = 0.5       # timings this close to a span scale it ...
NEAR_COUNT = 5     # ... or, where fewer are, this many nearest ones
SIDE = 20      # counter range per side
DEPTH = 2      # buffer entries per side


def search() -> int:
    """Breadth-first search of two counters with bounded FIFO buffers;
    returns the number of states seen (always the same)."""
    start = (0, 0, (), ())
    seen = {start}
    frontier = [start]
    while frontier:
        successors = []
        for a, b, buf_a, buf_b in frontier:
            moves = []
            if a < SIDE:
                moves.append((a + 1, b, (buf_a + (a,))[-DEPTH:], buf_b))
            if b < SIDE:
                moves.append((a, b + 1, buf_a, (buf_b + (b,))[-DEPTH:]))
            if buf_a:
                moves.append((a, b, buf_a[1:], buf_b))
            if buf_b:
                moves.append((a, b, buf_a, buf_b[1:]))
            for state in moves:
                if state not in seen:
                    seen.add(state)
                    successors.append(state)
        frontier = successors
    return len(seen)


class Yardstick:
    """Times `search()` whenever `tick()` finds YARDSTICK_EVERY_S gone by,
    and scales a span of the run by the timings around it."""

    def __init__(self):
        self.at: list[float] = []        # midpoint of each timing, ascending
        self.samples: list[float] = []   # its duration
        self.spent = 0.0                 # seconds spent in timings, in all
        self.states = search()   # warm-up, and the count every timing must see
        self._last = _clock()

    def tick(self) -> None:
        t0 = _clock()
        if t0 - self._last < YARDSTICK_EVERY_S:
            return
        states = search()
        self._last = _clock()
        if states != self.states:
            raise RuntimeError(f"yardstick saw {states} states, then {self.states}")
        self.at.append((t0 + self._last) / 2)
        self.samples.append(self._last - t0)
        self.spent += self._last - t0

    def watch(self, model) -> None:
        """Tick inside the model's exploration, once a state at most."""
        is_terminal, tick = model.is_terminal, self.tick

        def ticking(state):
            tick()
            return is_terminal(state)

        model.is_terminal = ticking

    def around(self, start: float, end: float) -> float:
        """Median timing within NEAR_S of the span, or of the NEAR_COUNT
        timings nearest its middle where fewer lie that close."""
        lo = bisect.bisect_left(self.at, start - NEAR_S)
        hi = bisect.bisect_right(self.at, end + NEAR_S)
        if hi - lo < NEAR_COUNT:
            middle = (start + end) / 2
            i = bisect.bisect_left(self.at, middle)
            nearby = range(max(0, i - NEAR_COUNT), min(len(self.at), i + NEAR_COUNT))
            nearest = sorted(nearby, key=lambda j: abs(self.at[j] - middle))[:NEAR_COUNT]
            return statistics.median(self.samples[j] for j in nearest)
        return statistics.median(self.samples[lo:hi])

    def seconds(self, span: tuple[float, float, float]) -> float:
        """A (start, end, seconds spent on the yardstick) span's own
        length in seconds at the nominal speed."""
        start, end, spent = span
        return (end - start - spent) * NOMINAL_S / self.around(start, end)


class NoYardstick:
    """Stands in for `Yardstick` in traced runs, whose layer times are
    reported as measured."""

    spent = 0.0

    def tick(self) -> None:
        pass

    def watch(self, model) -> None:
        pass
