#!/usr/bin/env python3
"""Fast self-test of the benchmark's own code.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` is exactly what ``spec.py`` describes and
keeps to the benchmark file format (names, units, directions, bounds);
that every per-layer metric names end-to-end metrics and workloads that
exist; that the pass checks reject a disagreeing pass; and runs every
workload at a tiny size in both modes, requiring correct passes, the
full metric set, and identical work counters across two traced passes.
Takes about forty seconds; exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spec  # noqa: E402

LIMITS = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_catalogue() -> None:
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(document == spec.benchmark_json(), "BENCHMARK.json differs from spec.py")
    check(
        list(document) == ["command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"],
        "BENCHMARK.json keys",
    )
    check(1 <= document["run_seconds"] <= 60, "run_seconds out of range")
    names = []
    for section, (low, high) in LIMITS.items():
        entries = document[section]
        check(low <= len(entries) <= high, f"{section}: {len(entries)} entries")
        for entry in entries:
            name = entry["name"]
            names.append(name)
            check(bool(spec.NAME_RE.match(name)), f"bad name {name!r}")
            if section == "workloads":
                check(set(entry) == {"name", "why"}, f"{name}: keys")
                why = entry["why"]
                check(0 < len(why) <= 200 and "\n" not in why, f"{name}: why")
                continue
            expected = {"name", "unit", "better"} | (
                {"bound"} if section == "end_to_end" else set()
            )
            check(set(entry) == expected, f"{name}: keys {sorted(entry)}")
            check(bool(spec.UNIT_RE.match(entry["unit"])), f"{name}: unit")
            check(entry["better"] in ("higher", "lower"), f"{name}: direction")
            if section == "end_to_end":
                check(0 < entry["bound"] <= 0.25, f"{name}: bound")
    check(len(names) == len(set(names)), "metric or workload name used twice")
    setup = spec.END_TO_END_BY_NAME.get("setup_s")
    check(setup is not None and setup.unit == "s" and setup.better == "lower",
          "setup_s must be an end-to-end metric in s, lower is better")
    check(setup.bound == max(m.bound for m in spec.END_TO_END),
          "setup_s must have the largest bound")
    for metric in spec.PER_LAYER:
        for target, workloads in metric.moves:
            check(target in spec.END_TO_END_BY_NAME, f"{metric.name}: moves {target}")
            check(set(workloads) <= set(spec.WORKLOAD_NAMES),
                  f"{metric.name}: unknown workload in {workloads}")
    for workload in spec.WORKLOADS:
        check(workload.stresses and workload.bypasses and workload.shape
              and workload.size, f"{workload.name}: description incomplete")


def check_pass_checks(run) -> None:
    from workloads import Pass, Workload

    workload = Workload(0, ROOT)
    first = Pass(1.0, 1.0, 10, 10, 10, [0.1, 0.2], "a", {})
    second = Pass(1.0, 1.0, 10, 10, 10, [0.1, 0.2], "b", {})
    workload.agree(first, 0)
    workload.agree(second, 0)
    check(first.ok and not second.ok, "a disagreeing pass must fail its check")
    metrics = {m.name: 1.0 for m in spec.END_TO_END}
    with contextlib.redirect_stderr(io.StringIO()):  # the expected complaint
        line = run.result_line(metrics, spec.END_TO_END, [first, second], [])
    check(not line["correct"] and line["failed"] == 10 and line["attempted"] == 20,
          "a failed pass must count all its requests as failed")


def check_workloads(run) -> None:
    from workloads import WORKLOADS
    from yardstick import Yardstick

    yardstick = Yardstick()

    work = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in spec.WORKLOAD_NAMES:
            workload = WORKLOADS[name](0, ROOT, small=True)
            metrics, passes = run.end_to_end(workload, 0.0, work, yardstick, setup_repeats=1)
            line = run.result_line(metrics, spec.END_TO_END, passes, [])
            check(line["correct"], f"{name}: untraced passes failed their checks")
            for metric in spec.END_TO_END:
                check(line["metrics"][metric.name]["value"] > 0,
                      f"{name}: {metric.name} is zero")
            workload = WORKLOADS[name](0, ROOT, small=True)
            metrics, passes, problems = run.per_layer(workload, work)
            line = run.result_line(metrics, spec.PER_LAYER, passes, problems)
            check(line["correct"], f"{name}: traced run failed its checks")
            print(f"selftest: {name} ok")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"selftest: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["REPRO_PROFILE_CACHE"] = "1"
    import run

    try:
        check_catalogue()
        print("selftest: catalogue ok")
        check_pass_checks(run)
        print("selftest: pass checks ok")
        check_workloads(run)
    except AssertionError as error:
        print(f"selftest: FAILED: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
