"""Outside-in per-layer ledger for one traced pass.

The simulator is never edited to report its own cost.  Instead a pass
runs under :mod:`cProfile`, installed here, and the profile is read back
in two ways:

* **Self time by layer.**  Every profiled Python function belongs to the
  layer of its source module (``LAYERS``).  A C function (hashing, heap
  operations, generator ``send``) has no module, so its self time is
  split over its callers by the per-caller times cProfile keeps, and
  lands in the caller's layer.  Shares are read relative to each other
  only: the profiler adds a cost per Python call and none to C work, so
  call-heavy layers read high.
* **Exact call counts at layer entry points**, which do not depend on
  the host: generator resumes, heap operations, driver RNG draws, hasher
  updates, telemetry emits, event-pool requests.

``EntryTimers`` is the untraced complement: it wraps a few public entry
points for the length of a pass and times them with the profiler off.
"""

from __future__ import annotations

import cProfile
import inspect
import pstats
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# First matching prefix wins; paths are relative to the ``repro`` package.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sim/trace.py", "sim.trace"),
    ("sim/", "sim"),
    ("gpu/driver.py", "gpu.driver"),
    ("gpu/", "gpu.device"),
    ("serving/session.py", "serving.session"),
    ("serving/admission.py", "serving.admission"),
    ("serving/", "serving.server"),
    ("core/", "core.scheduler"),
    ("faults/determinism.py", "faults.determinism"),
    ("telemetry/", "telemetry"),
    ("analysis/", "analysis"),
    ("workloads/traffic.py", "workloads.traffic"),
    ("durability/", "durability.journal"),
    ("recovery/", "recovery"),
    ("", "repro.other"),
)
LAYER_NAMES: Tuple[str, ...] = tuple(name for _, name in LAYERS) + ("interp",)

Key = Tuple[str, int, str]


def _builtin(key: Key) -> bool:
    return key[0] == "~"


class Profile:
    """A finished cProfile run, indexed by layer."""

    def __init__(self, stats: Dict[Key, tuple], package_root: str):
        self.stats = stats
        self._root = package_root.rstrip("/") + "/"
        self._layer_cache: Dict[str, str] = {}

    # -- attribution -----------------------------------------------------

    def layer_of_file(self, filename: str) -> str:
        layer = self._layer_cache.get(filename)
        if layer is None:
            layer = "interp"
            if filename.startswith(self._root):
                relative = filename[len(self._root):]
                layer = next(
                    name for prefix, name in LAYERS if relative.startswith(prefix)
                )
            self._layer_cache[filename] = layer
        return layer

    def self_time_by_layer(self) -> Dict[str, float]:
        seconds: Dict[str, float] = dict.fromkeys(LAYER_NAMES, 0.0)
        for key, (_cc, _nc, tt, _ct, callers) in self.stats.items():
            if not _builtin(key):
                seconds[self.layer_of_file(key[0])] += tt
                continue
            if not callers:
                seconds["interp"] += tt
                continue
            for caller, edge in callers.items():
                layer = "interp" if _builtin(caller) else self.layer_of_file(caller[0])
                seconds[layer] += edge[2]
        return seconds

    def self_fracs(self) -> Dict[str, float]:
        seconds = self.self_time_by_layer()
        total = sum(seconds.values())
        return {layer: (s / total if total > 0 else 0.0) for layer, s in seconds.items()}

    # -- call counts -----------------------------------------------------

    def calls(self, predicate: Callable[[Key], bool]) -> int:
        """Calls of every function whose key satisfies ``predicate``."""
        return sum(v[1] for k, v in self.stats.items() if predicate(k))

    def calls_from(
        self, callee: Callable[[Key], bool], caller_file_suffix: str
    ) -> int:
        """Calls of matching functions made from one source file."""
        total = 0
        for key, value in self.stats.items():
            if not callee(key):
                continue
            for caller, edge in value[4].items():
                if caller[0].endswith(caller_file_suffix):
                    total += edge[1]
        return total

    def calls_in_file(self, file_suffix: str, names: Iterable[str] = ()) -> int:
        """Calls (including generator resumes) of functions in one file."""
        wanted = set(names)
        return self.calls(
            lambda k: k[0].endswith(file_suffix) and (not wanted or k[2] in wanted)
        )


def named(*fragments: str) -> Callable[[Key], bool]:
    """Predicate: a C function whose name contains any fragment."""
    return lambda key: _builtin(key) and any(f in key[2] for f in fragments)


def profile_call(fn: Callable[[], Any], package_root: str) -> Tuple[float, Any, Profile]:
    """Run ``fn`` under cProfile; return (wall seconds, result, profile)."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    elapsed = time.perf_counter() - start
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    return elapsed, result, Profile(stats, package_root)


class EntryTimers:
    """Time calls to chosen entry points while the context is open.

    ``wrap(cls, attr, label)`` replaces the method ``cls.attr`` with a
    timing wrapper and puts the original back on exit.  Re-entrant calls
    under one label are timed once, at the outermost call.
    """

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(self, cls: type, attr: str, label: str) -> None:
        original = cls.__dict__[attr]
        seconds, depth = self.seconds, self._depth

        def timed(*args, **kwargs):
            depth[label] += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                depth[label] -= 1
                if depth[label] == 0:
                    seconds[label] += time.perf_counter() - start

        self._patches.append((cls, attr, original))
        setattr(cls, attr, timed)

    def wrap_public_methods(self, cls: type, label: str) -> None:
        for attr, value in list(cls.__dict__.items()):
            if not attr.startswith("_") and inspect.isfunction(value):
                self.wrap(cls, attr, label)

    def __enter__(self) -> "EntryTimers":
        return self

    def __exit__(self, *exc: Any) -> Optional[bool]:
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)
        return None
