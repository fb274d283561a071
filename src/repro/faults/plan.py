"""Fault plans: deterministic, seed-driven failure schedules.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries describing
*what* fails, *whose* work it hits, and *when* — declaratively, so the
same plan JSON replays byte-identically across runs (the property the
determinism suite asserts).  Plans are either written by hand, loaded
from JSON, or generated from a seed with :meth:`FaultPlan.generate`.

Three fault kinds are supported (matching what the injector can wire
into the simulated GPU stack):

``kernel_crash``
    The driver rejects a kernel launch; the kernel's ``done`` event
    fails with :class:`~repro.faults.errors.KernelLaunchFailure`.
    Targeted by client and by launch ordinal (``after``/``every``/
    ``count``).

``device_hang``
    The device stalls for a bounded interval starting at ``at``
    simulated seconds: kernels already submitted wait out the stall,
    so gangs make no progress (what the scheduler's stall watchdog is
    for).

``oom``
    A memory allocation fails with
    :class:`~repro.faults.errors.InjectedOutOfMemory`.  Targeted by
    client and allocation ordinal.

``device_crash``
    The device crashes at ``at`` simulated seconds: every queued
    kernel fails with :class:`~repro.faults.errors.DeviceCrashed` and
    new launches are rejected until the reset completes ``duration``
    seconds later (``duration`` 0 uses the GPU spec's profiled
    ``reset_latency``).  Recovery semantics — failover, replay after
    reset — live in :mod:`repro.recovery`.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from ..sim.rng import derive_seed

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan"]

FAULT_KINDS = ("kernel_crash", "device_hang", "oom", "device_crash")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    client_id:
        Restrict the fault to jobs of this client (``None`` = any job).
        Matching is on the job-id prefix before ``/`` (the
        :class:`~repro.serving.client.Client` convention,
        ``c0/b3``) or before ``#`` (the ``make_job`` counter
        convention, ``c0#1``), with a fallback to the whole job id.
    after / every / count:
        Ordinal targeting for ``kernel_crash`` and ``oom``: skip the
        first ``after`` matching events, then fire on every
        ``every``-th one, at most ``count`` times (0 = unlimited).
    at / duration:
        Timing for ``device_hang`` and ``device_crash``: the stall or
        outage begins at ``at`` simulated seconds and lasts
        ``duration`` seconds.  For ``device_crash`` a ``duration`` of
        0 means "use the GPU spec's profiled reset latency".
    """

    kind: str
    client_id: Optional[str] = None
    after: int = 0
    every: int = 1
    count: int = 1
    at: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.after < 0:
            raise ValueError(f"after must be >= 0: {self.after}")
        if self.every < 1:
            raise ValueError(f"every must be >= 1: {self.every}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0: {self.count}")
        # Written ``not x >= 0`` so NaN fails too.
        if self.kind == "device_hang":
            if not self.duration > 0:
                raise ValueError(
                    f"device_hang needs a positive duration: {self.duration}"
                )
            if not self.at >= 0:
                raise ValueError(f"device_hang time must be >= 0: {self.at}")
        if self.kind == "device_crash":
            if not self.duration >= 0:
                raise ValueError(
                    f"device_crash reset latency must be >= 0: {self.duration}"
                )
            if not self.at >= 0:
                raise ValueError(f"device_crash time must be >= 0: {self.at}")

    def matches(self, job_id: Any) -> bool:
        """Does this fault target ``job_id``?"""
        if self.client_id is None:
            return True
        text = str(job_id)
        return (
            text == self.client_id
            or text.split("/", 1)[0] == self.client_id
            or text.split("#", 1)[0] == self.client_id
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of faults, replayable from JSON or a seed."""

    faults: tuple = field(default_factory=tuple)
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise TypeError(f"not a FaultSpec: {fault!r}")

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def of_kind(self, kind: str) -> List[FaultSpec]:
        return [fault for fault in self.faults if fault.kind == kind]

    def with_fault(self, fault: FaultSpec) -> "FaultPlan":
        return replace(self, faults=self.faults + (fault,))

    # ------------------------------------------------------------------
    # Seeded generation
    # ------------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        client_ids: Sequence[str],
        kinds: Sequence[str] = ("kernel_crash",),
        num_faults: int = 1,
        horizon: float = 1.0,
        hang_duration: float = 5e-3,
        reset_latency: float = 0.0,
    ) -> "FaultPlan":
        """Derive a deterministic plan from ``seed``.

        The same ``(seed, client_ids, kinds, num_faults, horizon)``
        always yields the same plan — a ``derive_seed``-namespaced
        stream drives every choice, in a fixed order.
        ``reset_latency`` is the ``device_crash`` reset duration
        (0 = the GPU spec's profiled value).
        """
        if not client_ids:
            raise ValueError("generate() needs at least one client id")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        if num_faults < 1:
            raise ValueError(f"num_faults must be >= 1: {num_faults}")
        rng = random.Random(derive_seed(seed, "faults:plan"))
        faults: List[FaultSpec] = []
        for _ in range(num_faults):
            kind = rng.choice(list(kinds))
            if kind == "device_hang":
                faults.append(
                    FaultSpec(
                        kind="device_hang",
                        at=rng.uniform(0.0, horizon),
                        duration=hang_duration,
                    )
                )
            elif kind == "device_crash":
                faults.append(
                    FaultSpec(
                        kind="device_crash",
                        at=rng.uniform(0.0, horizon),
                        duration=reset_latency,
                    )
                )
            else:
                faults.append(
                    FaultSpec(
                        kind=kind,
                        client_id=rng.choice(list(client_ids)),
                        after=rng.randint(0, 20),
                        every=rng.randint(1, 8),
                        count=rng.randint(1, 4),
                    )
                )
        return cls(faults=tuple(faults), seed=seed)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(
            faults=tuple(
                FaultSpec.from_dict(item) for item in data.get("faults", [])
            ),
            seed=data.get("seed"),
        )

    def to_json(self) -> str:
        """Canonical JSON form: sorted keys, 2-space indent.

        Byte-identical for equal plans, so a generated campaign
        round-trips exactly through :meth:`from_json` (asserted by the
        chaos determinism suite).
        """
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def describe(self) -> str:
        """One line per fault, for CLI output."""
        if not self.faults:
            return "(empty fault plan)"
        lines = []
        for index, fault in enumerate(self.faults):
            target = fault.client_id or "*"
            if fault.kind == "device_hang":
                lines.append(
                    f"[{index}] device_hang at t={fault.at:.4f}s "
                    f"for {fault.duration:.4f}s"
                )
            elif fault.kind == "device_crash":
                reset = (
                    f"{fault.duration:.4f}s"
                    if fault.duration > 0
                    else "spec reset latency"
                )
                lines.append(
                    f"[{index}] device_crash at t={fault.at:.4f}s "
                    f"(reset after {reset})"
                )
            else:
                count = fault.count if fault.count else "unlimited"
                lines.append(
                    f"[{index}] {fault.kind} on {target}: skip {fault.after}, "
                    f"then every {fault.every} (count={count})"
                )
        return "\n".join(lines)
