#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fig16 --seed 0 --seconds 12 --trace 0

Run from the root of a checkout; the simulator is imported from its
``src/`` directory.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``, measured on untraced passes with host time charged in
reference seconds (``yardstick.py``); ``--trace 1`` prints the per-layer
ledger from a separate traced run.  Every pass is checked (see
``workloads.py``); the last line of standard output is the result, and
the exit code is 1 if any check failed, 2 if there is nothing to run.

Cold set-ups use a fresh profile-cache directory under
``.perfbench-work/`` in the checkout, removed on exit, so the repository's
own ``.repro-cache/`` is never read or written.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spec  # noqa: E402  (perfbench/ is this script's own directory)
from workloads import SUB_SEEDS  # noqa: E402

MIN_PASSES = 3  # an untraced run times at least this many passes (>= SUB_SEEDS - 1)
TRACED_PASSES = 2  # traced passes whose work counters must agree exactly


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cold_setups(workload, work: Path, repeats: int, clock):
    """Set the workload up from nothing ``repeats`` times.

    Returns (setup, wall seconds, scaled seconds) per set-up.
    """
    from repro.experiments.runner import clear_caches

    setups = []
    for index in range(repeats):
        os.environ["REPRO_CACHE_DIR"] = str(work / f"cache-{index}")
        clear_caches()
        gc.collect()
        mark = clock.mark()
        setup = clock.segment(workload.cold_setup)
        setups.append((setup,) + clock.since(mark))
    return setups


def timed_passes(workload, seconds: float, clock):
    """Passes cycling through the sub-seeds, the first after the warm-up's."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()
        passes.append(workload.run_pass(clock, (len(passes) + 1) % SUB_SEEDS))
    return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    workload, seconds: float, work: Path, yardstick, setup_repeats: int = spec.SETUP_REPEATS
) -> Tuple[Dict[str, float], list]:
    from workloads import latency_quantiles
    from yardstick import PacedClock

    clock = PacedClock(yardstick)
    setups = cold_setups(workload, work, setup_repeats, clock)
    warm = workload.warm_up(clock)
    measured = timed_passes(workload, seconds, clock)
    # One pass per sub-seed: the simulated metrics pool exactly these, so
    # they do not depend on how many passes the host had time for.
    one_each = [warm] + measured[: SUB_SEEDS - 1]
    completed = sum(p.completed for p in one_each if p.ok)
    attempted = sum(p.attempted for p in one_each)
    p50, p90 = latency_quantiles([x for p in one_each for x in p.latencies])
    wall = statistics.median(p.terminal / p.seconds for p in measured)
    print(
        f"perfbench: {len(measured)} passes, wall-clock median {wall:.4g} req/s, "
        f"host at {clock.scaled / clock.seconds:.3f}x reference speed",
        file=sys.stderr,
    )
    metrics = {
        "req_per_s": statistics.median(p.terminal / p.scaled_seconds for p in measured),
        "setup_s": statistics.median(scaled for _, _, scaled in setups),
        "peak_rss_mb": peak_rss_mb(),
        "completed_frac": completed / attempted,
        "sim_latency_p50_s": p50,
        "sim_latency_p90_s": p90,
    }
    return metrics, [warm] + measured


def session_generators() -> set:
    """(first line, name) of every generator function of the session walker."""
    from repro.serving import session

    found = set()
    for _, cls in inspect.getmembers(session, inspect.isclass):
        if cls.__module__ != session.__name__:
            continue
        for _, fn in inspect.getmembers(cls, inspect.isfunction):
            if inspect.isgeneratorfunction(fn):
                found.add((fn.__code__.co_firstlineno, fn.__name__))
    return found


def work_counters(run, profile, generators: set) -> Dict[str, float]:
    """Host-independent counters of one traced pass."""
    from ledger import named

    c = run.counters
    kernels = c["kernels"]

    def per_kernel(count: float) -> float:
        return count / kernels if kernels else 0.0

    resumes = profile.calls(named("'send' of 'generator'", "'throw' of 'generator'"))
    heap_ops = profile.calls(named("_heapq.heap"))
    pool_requests = profile.calls_in_file("/sim/wheel.py", ("timeout", "event"))
    session_resumes = profile.calls(
        lambda k: k[0].endswith("/serving/session.py") and (k[1], k[2]) in generators
    )
    admitted, arrivals = c.get("admit", 0), c.get("arrivals", 0)
    return {
        "sim.resumes_per_kernel": per_kernel(resumes),
        "sim.heap_ops_per_kernel": per_kernel(heap_ops),
        "sim.pool_alloc_frac": c["pool_allocs"] / pool_requests if pool_requests else 0.0,
        "sim.trace.records_per_kernel": per_kernel(c["tracer_records"]),
        "gpu.driver.rng_draws_per_kernel": per_kernel(
            profile.calls_from(named("of '_random.Random' objects"), "/gpu/driver.py")
        ),
        "gpu.driver.stream_switches": c["stream_switches"],
        "gpu.device.kernels": kernels,
        "gpu.device.busy_frac": c["busy_s"] / c["sim_s"] if c["sim_s"] else 0.0,
        "serving.session.resumes_per_kernel": per_kernel(session_resumes),
        "core.scheduler.decisions": c["decisions"],
        "faults.determinism.hash_updates": profile.calls_from(
            named("'update' of '_hashlib"), "/faults/determinism.py"
        ),
        "telemetry.emits_per_kernel": per_kernel(
            profile.calls_in_file("/telemetry/pipeline.py", ("emit",))
        ),
        "workloads.traffic.arrivals": arrivals,
        "serving.admission.decisions.admit": admitted,
        "serving.admission.decisions.reject": c.get("reject", 0),
        "serving.admission.decisions.defer": c.get("defer", 0),
        "serving.admission.decisions.degrade": c.get("degrade", 0),
        "serving.admission.admit_frac": admitted / arrivals if arrivals else 0.0,
        "durability.journal.rows": c.get("journal_rows", 0),
        "recovery.failovers": c["failovers"],
        "recovery.rejects": c["recovery_rejects"],
    }


def per_layer(workload, work: Path) -> Tuple[Dict[str, float], list, List[str]]:
    import repro
    from ledger import EntryTimers, profile_call
    from repro.durability import JobStore
    from repro.telemetry import Telemetry
    from yardstick import Clock

    package_root = os.path.dirname(repro.__file__)
    clock = Clock()
    ((setup, _, _),) = cold_setups(workload, work, 1, clock)
    warm = workload.warm_up(clock)
    with EntryTimers() as timers:
        timers.wrap(Telemetry, "finalize", "finalize")
        timers.wrap_public_methods(JobStore, "journal")
        gc.collect()
        untraced = workload.run_pass(clock)
    traced = []
    for _ in range(TRACED_PASSES):
        gc.collect()
        traced.append(profile_call(lambda: workload.run_pass(clock), package_root))
    generators = session_generators()
    counters = [work_counters(run, profile, generators) for _, run, profile in traced]
    problems = []
    if any(c != counters[0] for c in counters[1:]):
        changed = sorted(k for k in counters[0] if counters[0][k] != counters[1][k])
        problems.append(f"traced passes disagree on work counters: {changed}")
    elapsed, _, profile = traced[0]
    metrics = {f"{layer}.self_frac": share for layer, share in profile.self_fracs().items()}
    metrics.update(counters[0])
    metrics.update({
        "core.profiler.build_s": setup.profile_s,
        "experiments.runner.build_stack_s": setup.build_stack_s,
        "faults.determinism.digest_s": untraced.phases.get("digest", 0.0),
        "telemetry.finalize_s": timers.seconds.get("finalize", 0.0),
        "analysis.blame_s": untraced.phases.get("blame", 0.0),
        "durability.journal.busy_s": timers.seconds.get("journal", 0.0),
        "trace_overhead_x": elapsed / untraced.seconds,
    })
    passes = [warm, untraced] + [run for _, run, _ in traced]
    return metrics, passes, problems


def result_line(metrics: Dict[str, float], catalogue, passes, problems) -> dict:
    names = [m.name for m in catalogue]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    problems = list(problems)
    for run in passes:
        problems.extend(run.problems)
    for problem in sorted(set(problems)):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.attempted for p in passes if not p.ok),
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit} for m in catalogue
        },
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    yardstick = None
    if not args.trace:
        from yardstick import Yardstick

        yardstick = Yardstick()  # before the simulator is imported
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_PROFILE_CACHE"] = "1"
    try:
        workload = WORKLOADS[args.workload](args.seed, ROOT)
        if args.trace:
            metrics, passes, problems = per_layer(workload, work)
            line = result_line(metrics, spec.PER_LAYER, passes, problems)
        else:
            metrics, passes = end_to_end(workload, args.seconds, work, yardstick)
            line = result_line(metrics, spec.END_TO_END, passes, [])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
