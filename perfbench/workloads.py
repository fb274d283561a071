"""The three benchmark workloads, driven through public entry points only.

Each workload turns the benchmark seed into the simulator's inputs,
builds its stack from nothing in ``cold_setup``, and runs checked passes.
A pass returns a :class:`Pass`: its host time, request accounting,
simulated latencies, a fingerprint that must repeat on every pass of the
same sub-seed, and host-independent work counters read from the public
state of the stacks it ran.

Seed mapping.  One benchmark seed gives ``SUB_SEEDS`` simulator seeds,
and a run cycles its passes through them, so that its simulated latencies
pool ``SUB_SEEDS`` independent runs instead of one.  ``fig16`` and
``fig16-spans`` run ``ExperimentConfig(seed=3 + SUB_SEEDS * seed + sub)``:
seed 0, sub 0 is the configuration ``repro bench`` pins, so its digests
are checked against ``BENCH_BASELINE.json``.  Other seeds change the
simulated GPU's clock and driver draws.  ``overload`` runs
``SoakConfig(seed=SUB_SEEDS * seed + sub)``.  Every pass is also checked
against the first pass of the run with the same sub-seed.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

FIG16_BATCHES = 6
FIG16_CONFIG_SEED = 3  # the Fig 16 configuration BENCH_BASELINE.json pins
OVERLOAD_RATE = 3000.0
OVERLOAD_PROCESS = "poisson"
SUB_SEEDS = 3

# Host-independent counters a pass reports (summed over its stacks).
STACK_COUNTERS = (
    "kernels",
    "busy_s",
    "sim_s",
    "stream_switches",
    "tracer_records",
    "decisions",
    "pool_allocs",
    "failovers",
    "recovery_rejects",
)


@dataclass
class Pass:
    """One checked pass of a workload."""

    seconds: float  # wall seconds
    scaled_seconds: float  # reference seconds (see yardstick.py)
    attempted: int
    terminal: int
    completed: int
    latencies: List[float]
    fingerprint: Any
    counters: Dict[str, float]
    phases: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Setup:
    """Wall seconds of the cold profile build and the first build_stack."""

    profile_s: float
    build_stack_s: float


def summarize_stack(sim, server, scheduler, recovery) -> Dict[str, float]:
    """Work counters of one finished (or abandoned) stack."""
    tracer = server.tracer
    pools = sim.pools
    return {
        "kernels": server.device.kernels_executed,
        "busy_s": server.device.busy_time,
        "sim_s": sim.now,
        "stream_switches": server.driver.stream_switches,
        "tracer_records": sum(tracer.count(key) for key in tracer.keys()),
        "decisions": len(getattr(scheduler, "decisions", ())),
        "pool_allocs": pools.timeout_allocs + pools.event_allocs,
        "failovers": recovery.failovers if recovery is not None else 0,
        "recovery_rejects": (
            recovery.sheds + recovery.breaker_rejections
            if recovery is not None else 0
        ),
    }


def add_counters(summaries: Iterable[Dict[str, float]]) -> Dict[str, float]:
    total = dict.fromkeys(STACK_COUNTERS, 0)
    for summary in summaries:
        for key in STACK_COUNTERS:
            total[key] += summary[key]
    return total


def completed_latencies(server) -> List[float]:
    return [
        job.latency
        for job in server.completed_jobs
        if job.latency is not None and not job.failed and not job.cancelled
    ]


def latency_quantiles(latencies: List[float]) -> Tuple[float, float]:
    """(p50, p90) of simulated latencies."""
    if len(latencies) < 2:
        raise ValueError("need at least two completed requests")
    deciles = statistics.quantiles(latencies, n=10)
    return statistics.median(latencies), deciles[8]


def pinned_digests(root: Path) -> Dict[str, str]:
    """The committed digest table (read only)."""
    path = root / "BENCH_BASELINE.json"
    return dict(json.loads(path.read_text())["digests"])


class Workload:
    """Common pass bookkeeping: a sub-seed's first pass sets its reference."""

    name = ""

    def __init__(self, seed: int, root: Path, small: bool = False):
        self.seed = seed
        self.root = root
        self.subs = [SUB_SEEDS * seed + sub for sub in range(SUB_SEEDS)]
        self.reference: Dict[int, Any] = {}

    def agree(self, run: Pass, sub: int) -> None:
        """A pass must reproduce the run's first pass of its sub-seed."""
        expected = self.reference.setdefault(sub, run.fingerprint)
        if run.fingerprint != expected:
            run.problems.append(
                f"pass disagrees with the first pass of sub-seed {sub} in this run"
            )

    def cold_setup(self) -> Setup:
        raise NotImplementedError

    def warm_up(self, clock) -> Pass:
        return self.run_pass(clock, 0)

    def run_pass(self, clock, sub: int = 0) -> Pass:
        """One checked pass on sub-seed ``sub``, timed by ``clock``."""
        raise NotImplementedError


class Fig16(Workload):
    """Closed-loop Fig 16 under ``fair`` and ``tf-serving``, digest per run."""

    name = "fig16"
    kinds: Tuple[str, ...] = ("fair", "tf-serving")
    pin_key = "fig16-{kind}@nb{batches}"

    def __init__(self, seed: int, root: Path, small: bool = False):
        super().__init__(seed, root, small)
        from repro.experiments.runner import ExperimentConfig
        from repro.workloads.scenarios import complex_workload

        batches = 1 if small else FIG16_BATCHES
        self.specs = complex_workload(num_batches=batches)
        if small:
            self.specs = self.specs[:4]  # two models, two clients each
        self.entries = sorted({(s.model, s.batch_size) for s in self.specs})
        self.configs = [
            ExperimentConfig(seed=FIG16_CONFIG_SEED + sub, tolerance=0.02)
            for sub in self.subs
        ]
        self.config = self.configs[0]
        # The pinned digests are those of seed 0, sub-seed 0.
        self.pinned: Dict[str, str] = {}
        if seed == 0 and not small:
            table = pinned_digests(root)
            self.pinned = {
                kind: table[self.pin_key.format(kind=kind, batches=batches)]
                for kind in self.kinds
            }
        self.profile = None

    def cold_setup(self) -> Setup:
        from repro.experiments.runner import build_stack, get_graph, get_profiler_output

        for model, _batch in self.entries:
            get_graph(model, self.config.scale, self.config.graph_seed)
        graphs = time.perf_counter()
        self.profile = get_profiler_output(self.entries, self.config)
        profiled = time.perf_counter()
        build_stack(
            self.entries, scheduler="fair", config=self.config,
            profiler_output=self.profile,
        )
        built = time.perf_counter()
        return Setup(profiled - graphs, built - profiled)

    def _run(self, kind: str, sub: int, **kwargs):
        from repro.experiments.runner import run_workload

        return run_workload(
            self.specs, scheduler=kind, config=self.configs[sub],
            profiler_output=self.profile, **kwargs,
        )

    def run_pass(self, clock, sub: int = 0) -> Pass:
        mark = clock.mark()
        digests: Dict[str, str] = {}
        phases = {"digest": 0.0}

        def run_and_digest(kind: str):
            # One segment per run, ending with its digest as repro serve does.
            result = self._run(kind, sub)
            start = time.perf_counter()
            digests[kind] = result.trace_digest()
            phases["digest"] += time.perf_counter() - start
            return result

        results = [clock.segment(lambda: run_and_digest(kind)) for kind in self.kinds]
        return self._finish(clock.since(mark), sub, results, digests, phases)

    def _finish(self, seconds, sub, results, digests, phases) -> Pass:
        attempted = len(results) * sum(spec.num_batches for spec in self.specs)
        latencies = [
            latency for r in results for latency in completed_latencies(r.server)
        ]
        failed = sum(r.total_failed_batches for r in results)
        run = Pass(
            seconds=seconds[0],
            scaled_seconds=seconds[1],
            attempted=attempted,
            terminal=len(latencies) + failed,
            completed=len(latencies),
            latencies=latencies,
            fingerprint=(tuple(sorted(digests.items())), tuple(latencies)),
            counters=add_counters(
                summarize_stack(r.sim, r.server, r.scheduler, r.recovery)
                for r in results
            ),
            phases=phases,
        )
        if run.completed != attempted:
            run.problems.append(f"{run.completed} of {attempted} requests completed")
        for kind, digest in sorted(digests.items()):
            expected = self.pinned.get(kind) if sub == 0 else None
            if expected is not None and digest != expected:
                run.problems.append(f"{kind} digest {digest[:12]} != pinned {expected[:12]}")
        self.agree(run, sub)
        return run


class Fig16Spans(Fig16):
    """The ``fair`` half of Fig 16 with span telemetry, then blame."""

    name = "fig16-spans"
    kinds = ("fair",)
    pin_key = "fig16-{kind}-telemetry@nb{batches}"

    def __init__(self, seed: int, root: Path, small: bool = False):
        super().__init__(seed, root, small)
        # Per sub-seed: the telemetry-off digest spans passes must reproduce.
        self.off_digests: Dict[int, str] = {}

    def run_pass(self, clock, sub: int = 0) -> Pass:
        from repro.analysis import blame_report
        from repro.telemetry import TelemetryConfig, attribute_tracer

        if sub not in self.off_digests:  # untimed: outside every segment
            self.off_digests[sub] = self._run("fair", sub).trace_digest()
        mark = clock.mark()
        result = clock.segment(
            lambda: self._run("fair", sub, telemetry=TelemetryConfig(verbosity="spans"))
        )

        def blame_and_digest():
            start = time.perf_counter()
            attributions = attribute_tracer(result.telemetry.tracer)
            report = blame_report(attributions, "fair", include_requests=False)
            middle = time.perf_counter()
            digest = result.trace_digest()
            phases = {"blame": middle - start, "digest": time.perf_counter() - middle}
            return attributions, report, digest, phases

        attributions, report, digest, phases = clock.segment(blame_and_digest)
        run = self._finish(clock.since(mark), sub, [result], {"fair": digest}, phases)
        if digest != self.off_digests[sub]:
            run.problems.append("spans digest differs from the telemetry-off digest")
        served = [a for a in attributions if a.status == "ok"]
        if len(served) != run.completed:
            run.problems.append(
                f"blame attributed {len(served)} of {run.completed} requests"
            )
        worst = max((abs(a.residual) for a in served), default=0.0)
        if worst > 1e-9:
            run.problems.append(f"blame decomposition residual {worst:.3g} s")
        if set(report["components"]) != set(served[0].components if served else ()):
            run.problems.append("blame report components do not match attributions")
        return run


class _SoakStacks:
    """Summaries of every stack ``run_soak`` builds, one per incarnation.

    Wraps the ``build_stack`` the soak module calls: the previous
    incarnation's stack is summarised when the next one is built (the
    kill has happened by then) and the last one on exit.
    """

    def __init__(self):
        from repro.experiments import soak

        self._module = soak
        self._original = soak.build_stack
        self._live = None
        self.latencies: List[float] = []
        self.summaries: List[Dict[str, float]] = []

    def _close_live(self) -> None:
        stack, self._live = self._live, None
        if stack is not None:
            self.latencies.extend(completed_latencies(stack.server))
            self.summaries.append(
                summarize_stack(stack.sim, stack.server, stack.scheduler, stack.recovery)
            )

    def _build_stack(self, *args, **kwargs):
        self._close_live()
        self._live = self._original(*args, **kwargs)
        return self._live

    def __enter__(self) -> "_SoakStacks":
        self._module.build_stack = self._build_stack
        return self

    def __exit__(self, *exc: Any) -> None:
        self._module.build_stack = self._original
        self._close_live()


class Overload(Workload):
    """Open-loop soak: traffic, admission gate, journal, kills, crashes."""

    name = "overload"

    def __init__(self, seed: int, root: Path, small: bool = False):
        super().__init__(seed, root, small)
        from repro.experiments.runner import ExperimentConfig
        from repro.experiments.soak import SoakConfig
        from repro.sim.rng import derive_seed

        overrides: Dict[str, Any] = {}
        if small:
            overrides = dict(duration=0.2, kills=(0.1,), device_crashes=(0.05,))
        self.soak_configs = [
            SoakConfig(
                seed=sub, scheduler_kinds=("fair",), rate=OVERLOAD_RATE,
                process=OVERLOAD_PROCESS, **overrides,
            )
            for sub in self.subs
        ]
        self.soak_config = self.soak_configs[0]
        self.entries = sorted({(m.model, m.batch_size) for m in self.soak_config.mix})
        # The first incarnation's configuration, as run_soak derives it.
        self.config = ExperimentConfig(
            scale=self.soak_config.scale,
            seed=derive_seed(self.soak_config.seed, "soak-run:fair:0"),
            quantum=self.soak_config.quantum,
        )

    def cold_setup(self) -> Setup:
        from repro.experiments.runner import build_stack, get_graph, get_profiler_output

        for model, _batch in self.entries:
            get_graph(model, self.config.scale, self.config.graph_seed)
        graphs = time.perf_counter()
        profile = get_profiler_output(self.entries, self.config)
        profiled = time.perf_counter()
        build_stack(
            self.entries, scheduler="fair", config=self.config,
            profiler_output=profile,
            recovery=self.soak_config.recovery_config(),
        )
        built = time.perf_counter()
        return Setup(profiled - graphs, built - profiled)

    def run_pass(self, clock, sub: int = 0) -> Pass:
        from repro.experiments.soak import run_soak

        mark = clock.mark()
        with _SoakStacks() as stacks:
            result = clock.segment(lambda: run_soak(self.soak_configs[sub]))
        seconds, scaled = clock.since(mark)
        soak = result.runs[0]
        terminal = soak.completed + soak.failed + soak.shed + soak.rejected
        counters = add_counters(stacks.summaries)
        counters.update(
            arrivals=soak.offered,
            admit=soak.admitted,
            reject=soak.rejected,
            defer=soak.deferred,
            degrade=soak.degraded,
            journal_rows=sum(soak.journal_counts.values()),
        )
        run = Pass(
            seconds=seconds,
            scaled_seconds=scaled,
            attempted=soak.offered,
            terminal=terminal,
            completed=soak.completed,
            latencies=stacks.latencies,
            fingerprint=(result.soak_digest(), tuple(stacks.latencies)),
            counters=counters,
        )
        run.problems.extend(result.violations)
        if terminal != soak.offered:
            run.problems.append(f"{terminal} of {soak.offered} arrivals terminal")
        if soak.completed + soak.failed + soak.shed != soak.admitted:
            run.problems.append("admitted requests not all accounted terminal")
        self.agree(run, sub)
        return run


WORKLOADS = {cls.name: cls for cls in (Fig16, Fig16Spans, Overload)}
