"""Host-time clocks, plain and paced by a fixed yardstick.

On a shared host the same pass can take 2.4 s or 4.3 s within one minute:
a neighbour's load slows every instruction, and the slowdown comes and
goes over seconds to minutes.  A median over passes does not remove it,
because whole runs fall in slow phases.

``PacedClock`` measures the host's speed in the same window as the work.
It runs a ``Yardstick`` (a fixed pure-Python event loop with the
simulator's mix of work: heap operations, generator resumes, dict and
attribute traffic, small allocations, scattered reads and writes over a
large arena of objects) between consecutive segments of work.  It then
charges each segment in *reference seconds*: its wall time scaled by
``REFERENCE_SECONDS`` over the mean of the two yardstick runs around it.
A reference second is the time the host takes for a fixed amount of
yardstick work, so a change to the simulator moves the scaled time
exactly as it moves the wall time, while a slower host does not.  The
yardstick does not import the simulator, so no change to the simulator can
move it.

``Clock`` is the plain wall clock with the same interface.  It is used
under the profiler and for per-layer timings.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Any, Callable, List, Tuple

# Yardstick time on an uncontended core of the calibration host (2-core
# x86-64 VM, CPython 3.11.7); scaled times are host seconds at that speed.
REFERENCE_SECONDS = 0.15
YARDSTICK_STEPS = 25_000
# Objects the yardstick touches at random, so that it depends on the cache
# and memory like the simulator does (about 27 MB resident).  A yardstick
# that stays in cache tracked the host's slow phases half as well.
ARENA_SIZE = 1 << 17


class _Cell:
    __slots__ = ("time", "proc", "value", "hits")

    def __init__(self, time_: float, proc: int, value: Any):
        self.time = time_
        self.proc = proc
        self.value = value
        self.hits = 0


def _worker(ident: int, state: dict, rng: Callable[[], float]):
    total = 0.0
    while True:
        delay = yield
        total += delay * rng()
        record = state.get(ident)
        if record is None:
            record = state[ident] = [0, 0.0]
        record[0] += 1
        record[1] += total


def _yardstick_work(arena: List[_Cell], steps: int) -> int:
    seed = [12345]

    def rng() -> float:
        seed[0] = (seed[0] * 1103515245 + 12345) & 0x7FFFFFFF
        return seed[0] / 2147483648.0

    state: dict = {}
    procs = []
    for ident in range(64):
        proc = _worker(ident, state, rng)
        next(proc)
        procs.append(proc)
    heap = [(rng(), ident, _Cell(0.0, ident, None)) for ident in range(64)]
    heapq.heapify(heap)
    seq = len(heap)
    mask = len(arena) - 1
    pick = 987654
    for _ in range(steps):
        now, _seq, cell = heapq.heappop(heap)
        delay = rng() * 0.01
        procs[cell.proc].send(delay)
        for _touch in range(4):
            pick = (pick * 1103515245 + 12345) & 0x7FFFFFFF
            other = arena[pick & mask]
            other.hits += 1
            other.value[0] += 1
        seq += 1
        heapq.heappush(heap, (now + delay, seq, _Cell(now + delay, cell.proc, (now, delay))))
    return sum(record[0] for record in state.values())


class Yardstick:
    """A fixed unit of pure-Python work over a fixed arena of objects.

    Build it before the simulator is imported: the constructor moves the
    arena, with everything else alive at that point, out of the cyclic
    garbage collector's sight (``gc.freeze``), so that the arena does not
    change how often the collector runs while the simulator works.
    """

    def __init__(self):
        self.arena = [_Cell(float(i), i & 63, [i]) for i in range(ARENA_SIZE)]
        gc.freeze()

    def __call__(self) -> float:
        """Wall seconds of one unit of yardstick work."""
        start = time.perf_counter()
        done = _yardstick_work(self.arena, YARDSTICK_STEPS)
        elapsed = time.perf_counter() - start
        if done != YARDSTICK_STEPS:
            raise RuntimeError("yardstick did not run its fixed amount of work")
        return elapsed


class Clock:
    """Accumulates wall seconds (and scaled seconds) over segments of work."""

    def __init__(self):
        self.seconds = 0.0
        self.scaled = 0.0

    def mark(self) -> Tuple[float, float]:
        return self.seconds, self.scaled

    def since(self, mark: Tuple[float, float]) -> Tuple[float, float]:
        """(wall, scaled) seconds charged since ``mark``."""
        return self.seconds - mark[0], self.scaled - mark[1]

    def segment(self, fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.seconds += elapsed
        self.scaled += self._scale(elapsed)
        return result

    def _scale(self, elapsed: float) -> float:
        return elapsed


class PacedClock(Clock):
    """A clock that charges each segment in reference seconds."""

    def __init__(self, yardstick: Yardstick):
        super().__init__()
        self._yardstick = yardstick
        self._before = yardstick()

    def _scale(self, elapsed: float) -> float:
        after = self._yardstick()
        speed = (self._before + after) / 2
        self._before = after
        return elapsed * REFERENCE_SECONDS / speed
