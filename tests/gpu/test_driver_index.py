"""The driver's incremental non-empty stream index.

``Driver`` keeps its non-empty streams as a list in stream-creation
order instead of scanning ``_queues`` on every pick.  ``ScanDriver``
below restores the scan: its ``_pop``/``_pop_eligible`` are the earlier
implementations, unchanged, and it never maintains the index.  Random
``launch``/``_pop``/``_pop_eligible``/``crash`` sequences — long enough
to trigger the opportunistic pruning and to relaunch pruned streams —
must leave both drivers making the same picks with the same
``stream_switches`` and RNG state, and the index must equal the full
scan after every step.
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.gpu.driver import Driver
from repro.sim import Simulator

NODE = SimpleNamespace(node_id=0)


class ScanDriver(Driver):
    """The driver as it was before the incremental index (the oracle)."""

    def _mark_nonempty(self, job_id):
        pass

    def _pop(self):
        if not self._queued:
            return None
        nonempty = [job_id for job_id, queue in self._queues.items() if queue]
        if len(nonempty) == 1:
            chosen = nonempty[0]
        else:
            ranks = self._ranks
            noise = self.arbitration_noise
            random = self.rng.random
            chosen = nonempty[0]
            best = ranks[chosen] + noise * random()
            for job_id in nonempty[1:]:
                score = ranks[job_id] + noise * random()
                if score > best:
                    best = score
                    chosen = job_id
        if chosen != self._current_stream:
            self.stream_switches += 1
        self._current_stream = chosen
        if len(self._queues) > 4 * len(nonempty) + 8:
            keep = set(nonempty)
            keep.add(chosen)
            self._queues = {
                job_id: queue
                for job_id, queue in self._queues.items()
                if job_id in keep
            }
            self._ranks = {
                job_id: rank
                for job_id, rank in self._ranks.items()
                if job_id in self._queues
            }
        self._queued -= 1
        return self._queues[chosen].popleft()

    def _pop_eligible(self, eligible):
        if not self._queued:
            return None
        nonempty = [job_id for job_id, queue in self._queues.items() if queue]
        candidates = [job_id for job_id in nonempty if eligible(job_id)]
        if not candidates:
            return None
        if len(candidates) == 1:
            chosen = candidates[0]
        else:
            ranks = self._ranks
            noise = self.arbitration_noise
            random = self.rng.random
            chosen = candidates[0]
            best = ranks[chosen] + noise * random()
            for job_id in candidates[1:]:
                score = ranks[job_id] + noise * random()
                if score > best:
                    best = score
                    chosen = job_id
        if chosen != self._current_stream:
            self.stream_switches += 1
        self._current_stream = chosen
        if len(self._queues) > 4 * len(nonempty) + 8:
            keep = set(nonempty)
            keep.add(chosen)
            self._queues = {
                job_id: queue
                for job_id, queue in self._queues.items()
                if job_id in keep
            }
            self._ranks = {
                job_id: rank
                for job_id, rank in self._ranks.items()
                if job_id in self._queues
            }
        self._queued -= 1
        return self._queues[chosen].popleft()


def pick(kernel):
    return None if kernel is None else (kernel.job_id, kernel.seq)


def apply(driver, op):
    """Run one operation; return what it observably produced."""
    kind = op[0]
    if kind == "launch":
        return pick(driver.launch(op[1], NODE, 1, duration=1e-3))
    if kind == "pop":
        return pick(driver._pop())
    if kind == "pop_eligible":
        allowed = op[1]
        return pick(driver._pop_eligible(lambda job_id: job_id in allowed))
    return driver.crash(driver.sim.now)


def check_step(driver, reference, got, expected):
    scan = [job_id for job_id, queue in driver._queues.items() if queue]
    assert driver._nonempty == scan
    assert driver._nonempty_order == sorted(driver._nonempty_order)
    assert driver._nonempty_order == [driver._order[j] for j in scan]
    assert list(driver._order) == list(driver._queues)
    assert got == expected
    assert driver.stream_switches == reference.stream_switches
    assert driver.rng.getstate() == reference.rng.getstate()
    assert list(driver._queues) == list(reference._queues)
    assert driver._ranks == reference._ranks
    assert driver.total_queued == reference.total_queued


def run_both(ops, seed=0, noise=3.2):
    driver = Driver(Simulator(), random.Random(seed), noise)
    reference = ScanDriver(Simulator(), random.Random(seed), noise)
    for op in ops:
        expected = apply(reference, op)
        got = apply(driver, op)
        check_step(driver, reference, got, expected)
    return driver


JOBS = st.integers(0, 23)
# Launches and picks equally likely, so queues stay short and the
# streams known to the driver soon outnumber the non-empty ones.
OPS = st.one_of(
    st.tuples(st.just("launch"), JOBS),
    st.tuples(st.just("pop")),
    st.tuples(st.just("pop_eligible"), st.frozensets(JOBS, max_size=12)),
    st.tuples(st.just("launch"), JOBS),
    st.tuples(st.just("pop")),
    st.tuples(st.just("crash")),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(OPS, min_size=100, max_size=300),
    st.integers(0, 2**16),
    st.sampled_from([0.0, 0.5, 3.2]),
)
def test_index_matches_scan_on_random_sequences(ops, seed, noise):
    run_both(ops, seed, noise)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(JOBS, st.integers(0, 2)), min_size=30, max_size=150),
    st.integers(0, 2**16),
)
def test_index_survives_churn_with_pruning(steps, seed):
    # Launch-and-drain churn over 24 stream ids: the pruning condition
    # (more than 4 * non-empty + 8 known streams) fires repeatedly and
    # pruned streams come back under their old ids.
    ops = []
    for job, pops in steps:
        ops.append(("launch", job))
        ops.extend([("pop",)] * pops)
    run_both(ops, seed)


def test_pruned_stream_relaunches_at_the_end():
    # Draining 20 single-kernel streams prunes at the pick that sees
    # 20 streams but only 2 non-empty ones (20 > 4 * 2 + 8).
    ops = [("launch", job) for job in range(20)] + [("pop",)] * 19
    driver = run_both(ops)
    survivors = list(driver._queues)
    assert len(survivors) < 20
    relaunch = min(set(range(20)) - set(survivors))
    assert relaunch < survivors[-1]
    driver = run_both(ops + [("launch", relaunch), ("launch", survivors[0])])
    assert list(driver._queues) == survivors + [relaunch]
    assert driver._nonempty[-1] == relaunch
    assert driver._nonempty[0] == survivors[0]


def test_crash_empties_the_index():
    driver = run_both(
        [("launch", 1), ("launch", 2), ("launch", 1), ("crash",)]
    )
    assert driver._nonempty == [] and driver._nonempty_order == []
    # Surviving (empty) streams keep their creation order on relaunch.
    driver = run_both(
        [("launch", 1), ("launch", 2), ("crash",), ("launch", 2), ("launch", 1)]
    )
    assert driver._nonempty == [1, 2]


def test_sanitizer_state_covers_the_index():
    driver = run_both([("launch", 1), ("launch", 2)])
    state = driver._sanitize_state()
    assert tuple(driver._nonempty) in state
    assert tuple(driver._nonempty_order) in state
    driver._nonempty.reverse()
    assert driver._sanitize_state() != state
