"""The benchmark's catalogue: workloads and metrics, one source of truth.

``BENCHMARK.json`` at the repository root is the published form of this
catalogue; ``selftest.py`` checks that the two agree, so a metric cannot
be added in one place and forgotten in the other.

Each per-layer metric names the end-to-end metric it should move and
the workloads it should move it on (``moves``).  That is the prediction
a change claiming a gain is held to: the named numbers move, the rest
stay within their bounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 12

# How many cold set-ups one untraced run times; setup_s is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, at most 200 characters (BENCHMARK.json)
    shape: str
    size: str
    stresses: Tuple[str, ...]
    bypasses: Tuple[str, ...]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" or "lower"
    bound: float = 0.0  # end-to-end only: allowed worsening, share of median
    # (end-to-end metric, workloads) pairs this layer metric should move.
    moves: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    doc: str = ""


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="fig16",
        why=(
            "Paper Fig 16, closed loop: 14 clients x 6 batches under fair "
            "and tf-serving, digest per run; event kernel, driver, device, "
            "session, scheduler, tracer, digest. No telemetry or admission"
        ),
        shape="closed loop, 14 clients (2 per Table 2 model), 6 batches each",
        size="168 requests and 113,304 kernels per pass (84 / 56,652 per scheduler)",
        stresses=(
            "sim", "sim.trace", "gpu.driver", "gpu.device", "serving.session",
            "core.scheduler", "faults.determinism",
        ),
        bypasses=(
            "telemetry", "analysis", "workloads.traffic", "serving.admission",
            "durability.journal", "recovery",
        ),
    ),
    Workload(
        name="fig16-spans",
        why=(
            "Fig 16 fair run with span telemetry, then blame as repro blame "
            "does; same simulation with observation records written and read "
            "back. Digest must equal the telemetry-off one"
        ),
        shape="closed loop, 14 clients, 6 batches each, fair only",
        size="84 requests and 56,652 kernels per pass",
        stresses=(
            "telemetry", "analysis", "sim", "gpu.device", "serving.session",
            "core.scheduler",
        ),
        bypasses=(
            "workloads.traffic", "serving.admission", "durability.journal",
            "recovery", "tf-serving arbitration in gpu.driver",
        ),
    ),
    Workload(
        name="overload",
        why=(
            "Open loop at 3000 req/s from 1M users, 200 tenants through the "
            "admission gate, job journal and recovery, with 2 kills, 2 device "
            "crashes and a stack rebuild per incarnation"
        ),
        shape=(
            "open loop, Poisson arrivals at 3000 req/s for 0.5 simulated s, "
            "about 30x the served rate"
        ),
        size=(
            "about 1,500 arrivals per pass (seed 0: 1,563), of which about 105 "
            "are admitted, 93 complete, 12 shed, the rest rejected"
        ),
        stresses=(
            "workloads.traffic", "serving.admission", "durability.journal",
            "recovery", "experiments.runner.build_stack", "sim",
        ),
        bypasses=("telemetry", "analysis", "faults.determinism", "tf-serving"),
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
FIG16 = ("fig16",)
SPANS = ("fig16-spans",)
OVERLOAD = ("overload",)
ALL = WORKLOAD_NAMES


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "req_per_s", "req/s", "higher", bound=0.2,
        doc=(
            "simulated requests that reached a terminal state (completed, "
            "failed, shed, rejected) per reference second (yardstick.py) of "
            "an untraced pass, median over the passes of a run"
        ),
    ),
    Metric(
        "setup_s", "s", "lower", bound=0.25,
        doc=(
            "graph generation, an offline profile build with an empty "
            "profile cache, and the first build_stack, in reference seconds; "
            f"median of {SETUP_REPEATS} cold set-ups in one run"
        ),
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", bound=0.1,
        doc="peak resident memory of the process that runs the workload",
    ),
    Metric(
        "completed_frac", "fraction", "higher", bound=0.15,
        doc=(
            "requests completed over requests attempted, over one pass of "
            "each sub-seed; a pass whose check fails counts none as completed"
        ),
    ),
    Metric(
        "sim_latency_p50_s", "s", "lower", bound=0.15,
        doc=(
            "median simulated latency (Job.latency) of the completed requests "
            "of one pass of each sub-seed"
        ),
    ),
    Metric(
        "sim_latency_p90_s", "s", "lower", bound=0.15,
        doc="90th percentile of the same simulated latencies",
    ),
)


def _layer_share(name: str, moves, doc: str) -> Metric:
    return Metric(name, "fraction", "lower", moves=moves, doc=doc)


PER_LAYER: Tuple[Metric, ...] = (
    # --- event kernel (sim/core.py, sim/wheel.py, sim/pool.py, ...) ---
    _layer_share(
        "sim.self_frac",
        (("req_per_s", FIG16 + OVERLOAD),),
        "traced self-time share of the event kernel",
    ),
    Metric(
        "sim.resumes_per_kernel", "resumes/kernel", "lower",
        moves=(("req_per_s", FIG16 + OVERLOAD),),
        doc="generator send/throw calls per executed kernel",
    ),
    Metric(
        "sim.heap_ops_per_kernel", "ops/kernel", "lower",
        moves=(("req_per_s", FIG16 + OVERLOAD),),
        doc="heappush/heappop calls per executed kernel",
    ),
    Metric(
        "sim.pool_alloc_frac", "fraction", "lower",
        moves=(("req_per_s", FIG16 + OVERLOAD), ("peak_rss_mb", FIG16 + OVERLOAD)),
        doc="event-pool misses over timeout()/event() calls",
    ),
    _layer_share(
        "sim.trace.self_frac",
        (("req_per_s", FIG16), ("peak_rss_mb", FIG16)),
        "traced self-time share of the interval tracer",
    ),
    Metric(
        "sim.trace.records_per_kernel", "records/kernel", "lower",
        moves=(("req_per_s", FIG16), ("peak_rss_mb", FIG16)),
        doc="IntervalTracer records per executed kernel",
    ),
    # --- GPU driver ---
    _layer_share(
        "gpu.driver.self_frac",
        (("req_per_s", FIG16),),
        "traced self-time share of the driver (tf-serving half carries most)",
    ),
    Metric(
        "gpu.driver.rng_draws_per_kernel", "draws/kernel", "lower",
        moves=(("req_per_s", FIG16),),
        doc="driver RNG draws per executed kernel; flat on fig16-spans",
    ),
    Metric(
        "gpu.driver.stream_switches", "count", "lower",
        moves=(("req_per_s", FIG16),),
        doc="driver stream switches in one pass",
    ),
    # --- GPU device ---
    _layer_share(
        "gpu.device.self_frac",
        (("req_per_s", FIG16),),
        "traced self-time share of the device model",
    ),
    Metric(
        "gpu.device.kernels", "count", "lower",
        moves=(("req_per_s", FIG16),),
        doc="kernels executed in one pass",
    ),
    Metric(
        "gpu.device.busy_frac", "fraction", "higher",
        moves=(("sim_latency_p50_s", ALL), ("sim_latency_p90_s", ALL)),
        doc="simulated device busy time over simulated run time",
    ),
    # --- session walker ---
    _layer_share(
        "serving.session.self_frac",
        (("req_per_s", FIG16),),
        "traced self-time share of the session walker",
    ),
    Metric(
        "serving.session.resumes_per_kernel", "resumes/kernel", "lower",
        moves=(("req_per_s", FIG16),),
        doc="session generator resumes per executed kernel",
    ),
    _layer_share(
        "serving.server.self_frac",
        (("req_per_s", ALL),),
        "traced self-time share of server, client, request and batching glue",
    ),
    # --- scheduler ---
    _layer_share(
        "core.scheduler.self_frac",
        (("req_per_s", FIG16),),
        "traced self-time share of the gang scheduler and its policies",
    ),
    Metric(
        "core.scheduler.decisions", "count", "lower",
        moves=(("req_per_s", FIG16), ("sim_latency_p50_s", ALL), ("sim_latency_p90_s", ALL)),
        doc="scheduling decisions in one pass",
    ),
    # --- set-up ---
    Metric(
        "core.profiler.build_s", "s", "lower",
        moves=(("setup_s", ALL),),
        doc="cold get_profiler_output, timed untraced",
    ),
    Metric(
        "experiments.runner.build_stack_s", "s", "lower",
        moves=(("setup_s", ALL), ("req_per_s", OVERLOAD)),
        doc="first build_stack after the profile build, timed untraced",
    ),
    # --- trace_digest ---
    _layer_share(
        "faults.determinism.self_frac",
        (("req_per_s", FIG16),),
        "traced self-time share of trace_digest (under-reads C hashing time)",
    ),
    Metric(
        "faults.determinism.digest_s", "s", "lower",
        moves=(("req_per_s", FIG16),),
        doc="trace_digest calls of one pass, timed untraced",
    ),
    Metric(
        "faults.determinism.hash_updates", "count", "lower",
        moves=(("req_per_s", FIG16),),
        doc="hasher update() calls made by trace_digest in one pass",
    ),
    # --- telemetry and blame ---
    _layer_share(
        "telemetry.self_frac",
        (("req_per_s", SPANS), ("peak_rss_mb", SPANS)),
        "traced self-time share of the telemetry pipeline; zero on fig16",
    ),
    Metric(
        "telemetry.emits_per_kernel", "emits/kernel", "lower",
        moves=(("req_per_s", SPANS), ("peak_rss_mb", SPANS)),
        doc="Telemetry.emit calls per executed kernel; zero on fig16",
    ),
    Metric(
        "telemetry.finalize_s", "s", "lower",
        moves=(("req_per_s", SPANS),),
        doc="Telemetry.finalize of one pass, timed untraced",
    ),
    _layer_share(
        "analysis.self_frac",
        (("req_per_s", SPANS),),
        "traced self-time share of blame aggregation",
    ),
    Metric(
        "analysis.blame_s", "s", "lower",
        moves=(("req_per_s", SPANS),),
        doc="attribute_tracer + blame_report of one pass, timed untraced",
    ),
    # --- control plane ---
    Metric(
        "workloads.traffic.arrivals", "count", "higher",
        moves=(("req_per_s", OVERLOAD),),
        doc="open-loop arrivals offered in one pass",
    ),
    _layer_share(
        "workloads.traffic.self_frac",
        (("req_per_s", OVERLOAD),),
        "traced self-time share of the traffic engine",
    ),
    Metric(
        "serving.admission.decisions.admit", "count", "higher",
        moves=(("completed_frac", OVERLOAD),),
        doc="arrivals the gate admitted in one pass",
    ),
    Metric(
        "serving.admission.decisions.reject", "count", "lower",
        moves=(("completed_frac", OVERLOAD),),
        doc="arrivals the gate rejected in one pass",
    ),
    Metric(
        "serving.admission.decisions.defer", "count", "lower",
        moves=(("req_per_s", OVERLOAD), ("sim_latency_p90_s", OVERLOAD)),
        doc="arrivals the gate deferred in one pass",
    ),
    Metric(
        "serving.admission.decisions.degrade", "count", "lower",
        moves=(("completed_frac", OVERLOAD),),
        doc="arrivals the gate admitted at a degraded batch in one pass",
    ),
    Metric(
        "serving.admission.admit_frac", "fraction", "higher",
        moves=(("req_per_s", OVERLOAD), ("completed_frac", OVERLOAD)),
        doc="admitted over offered arrivals",
    ),
    _layer_share(
        "serving.admission.self_frac",
        (("req_per_s", OVERLOAD),),
        "traced self-time share of the admission gate",
    ),
    Metric(
        "durability.journal.rows", "count", "lower",
        moves=(("req_per_s", OVERLOAD),),
        doc="JobStore rows written in one pass",
    ),
    Metric(
        "durability.journal.busy_s", "s", "lower",
        moves=(("req_per_s", OVERLOAD),),
        doc="time inside JobStore calls in one pass, timed untraced",
    ),
    _layer_share(
        "durability.journal.self_frac",
        (("req_per_s", OVERLOAD),),
        "traced self-time share of the job journal",
    ),
    Metric(
        "recovery.failovers", "count", "lower",
        moves=(("completed_frac", OVERLOAD),),
        doc="recovery failovers in one pass",
    ),
    Metric(
        "recovery.rejects", "count", "lower",
        moves=(("completed_frac", OVERLOAD),),
        doc="requests recovery shed or refused behind an open breaker",
    ),
    _layer_share(
        "recovery.self_frac",
        (("req_per_s", OVERLOAD),),
        "traced self-time share of the recovery manager",
    ),
    # --- everything else ---
    _layer_share(
        "repro.other.self_frac",
        (("req_per_s", ALL),),
        "traced self-time share of simulator modules outside the named layers",
    ),
    _layer_share(
        "interp.self_frac",
        (("req_per_s", ALL),),
        "traced self-time attributed to no simulator module",
    ),
    Metric(
        "trace_overhead_x", "x", "lower",
        doc="traced pass time over untraced pass time",
    ),
)

END_TO_END_BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME: Dict[str, Metric] = {m.name: m for m in PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalogue describes."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
