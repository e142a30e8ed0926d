"""Deterministic, seedable fault injection.

A :class:`FaultRegistry` arms a set of *named injection points* — the
places in the execution and persistence layers where real production
failures strike:

``pool.worker_crash``
    A labelling pool worker dies mid-shard (``os._exit``, i.e. a
    SIGKILL-equivalent: no exception, no result, no cleanup).
``pool.shard_hang``
    A worker wedges inside a shard (``time.sleep(hang_s)``), exercising
    the per-shard timeout path.
``storage.torn_write``
    An ``atomic_savez`` is truncated *after* the ``os.replace`` — the
    moment a power cut or ``kill -9`` tears a checkpoint/artifact.
``engine.transient_error``
    The serving engine raises :class:`TransientEngineError` for one
    request, exercising the per-route circuit breaker.

Arming is explicit and scoped::

    from repro import faults

    with faults.inject_faults({"pool.worker_crash": 1}):
        labeller.label(inputs)      # one worker will die

or via the ``REPRO_FAULTS`` environment variable (JSON or the compact
``name=times[:key=value...]`` form), which is how *spawn*-started pool
workers and ``repro serve`` subprocesses re-arm themselves: the module
re-reads the variable at import time.

Cost model: every hook site calls :func:`fire`, which is a single module
global load + ``is None`` test when nothing is armed — measured at
nanoseconds per call and gated at <= 1% of request latency by
``benchmarks/bench_serving.py --smoke``.

Determinism: counted faults (``times=N``) use a lock-protected shared
counter (``multiprocessing.Value``), so *fork*-started pool workers
inherit the same budget and a ``times=1`` crash fires exactly once even
across pool rebuilds.  Probabilistic faults (``p < 1``) draw from a
``random.Random`` seeded from ``(seed, point name)`` — per-process, so
replaying the same process tree replays the same faults.  Spawn-started
workers re-arm from the environment with fresh per-process counters
(documented limitation: budgets are then per-process, not global).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import warnings

_ENV_VAR = "REPRO_FAULTS"

#: Known injection points; arming an unknown name is an error so typos
#: fail fast instead of silently never firing.
POINTS = {
    "pool.worker_crash": "pool worker exits hard (os._exit) mid-shard",
    "pool.shard_hang": "pool worker sleeps `hang_s` inside a shard",
    "storage.torn_write": "atomic_savez output truncated after replace",
    "engine.transient_error": "serving engine raises TransientEngineError",
}


class TransientEngineError(RuntimeError):
    """Synthetic engine failure raised when ``engine.transient_error``
    fires — counted by the serving route's circuit breaker."""


class _FaultPoint:
    """One armed injection point: a fire budget plus free-form options."""

    __slots__ = ("name", "options", "_remaining", "_fired", "_lock", "_rng",
                 "_p")

    def __init__(self, name: str, times: int, options: dict, seed: int):
        self.name = name
        self.options = dict(options)
        self._p = float(self.options.pop("p", 1.0))
        # Shared values: fork-started pool workers inherit them, so a
        # times=1 budget fires exactly once across the process tree.
        self._remaining = multiprocessing.Value("l", int(times), lock=False)
        self._fired = multiprocessing.Value("l", 0, lock=False)
        self._lock = multiprocessing.Lock()
        self._rng = random.Random(f"{seed}:{name}")

    def fire(self) -> dict | None:
        with self._lock:
            if self._remaining.value == 0:
                return None
            if self._p < 1.0 and self._rng.random() >= self._p:
                return None
            if self._remaining.value > 0:     # negative = unlimited
                self._remaining.value -= 1
            self._fired.value += 1
        return dict(self.options)

    @property
    def remaining(self) -> int:
        return int(self._remaining.value)

    @property
    def fired(self) -> int:
        return int(self._fired.value)


def _normalise_spec(name: str, spec) -> dict:
    if name not in POINTS:
        known = ", ".join(sorted(POINTS))
        raise ValueError(f"unknown fault injection point {name!r} "
                         f"(known: {known})")
    if isinstance(spec, bool):
        spec = {"times": int(spec)}
    elif isinstance(spec, (int, float)):
        spec = {"times": int(spec)}
    elif isinstance(spec, dict):
        spec = dict(spec)
        spec.setdefault("times", 1)
    else:
        raise ValueError(f"fault spec for {name!r} must be an int (times) "
                         f"or a dict, got {type(spec).__name__}")
    spec["times"] = int(spec["times"])
    return spec


class FaultRegistry:
    """A set of armed injection points with deterministic budgets."""

    def __init__(self, specs: dict, *, seed: int = 0):
        self.seed = int(seed)
        self._specs = {name: _normalise_spec(name, spec)
                       for name, spec in dict(specs).items()}
        self._points = {}
        for name, spec in self._specs.items():
            options = {k: v for k, v in spec.items() if k != "times"}
            self._points[name] = _FaultPoint(name, spec["times"], options,
                                             self.seed)

    def fire(self, name: str) -> dict | None:
        point = self._points.get(name)
        if point is None:
            return None
        return point.fire()

    def snapshot(self) -> dict:
        """Per-point accounting — {name: {"remaining": n, "fired": m}}."""
        return {name: {"remaining": point.remaining, "fired": point.fired}
                for name, point in self._points.items()}

    def to_env(self) -> str:
        """Serialise for ``REPRO_FAULTS`` so spawn children can re-arm."""
        return json.dumps({"seed": self.seed, "points": self._specs})

    @classmethod
    def from_text(cls, text: str) -> "FaultRegistry":
        """Parse ``REPRO_FAULTS``: full JSON, bare JSON point mapping, or
        the compact ``name=times[:key=value...]`` comma list."""
        text = text.strip()
        if text.startswith("{"):
            doc = json.loads(text)
            if "points" in doc:
                return cls(doc["points"], seed=doc.get("seed", 0))
            return cls(doc)
        specs: dict[str, dict] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            head, *opts = item.split(":")
            name, _, times = head.partition("=")
            spec: dict = {"times": int(times) if times else 1}
            for opt in opts:
                key, _, value = opt.partition("=")
                try:
                    spec[key] = float(value)
                except ValueError:
                    spec[key] = value
            specs[name] = spec
        return cls(specs)

    def attach_metrics(self, metrics, labels: dict | None = None) -> None:
        """Publish per-point gauges (``repro_fault_armed`` = remaining
        budget, -1 for unlimited; ``repro_fault_fired``) into a
        :class:`repro.obs.MetricsRegistry`."""
        labels = dict(labels or {})
        names = (*labels, "point")
        armed = metrics.gauge(
            "repro_fault_armed",
            "Remaining armed fires per fault injection point "
            "(-1 = unlimited, absent = disarmed).", label_names=names)
        fired = metrics.gauge(
            "repro_fault_fired",
            "Fault injection fires observed by this process.",
            label_names=names)
        for name, point in self._points.items():
            armed.labels(point=name, **labels).set_function(
                lambda p=point: float(p.remaining))
            fired.labels(point=name, **labels).set_function(
                lambda p=point: float(p.fired))


#: The armed registry, or None.  ``fire`` reads this once — keeping the
#: disarmed path to a global load and an identity test.
_ACTIVE: FaultRegistry | None = None


def active() -> FaultRegistry | None:
    """The currently armed registry (None when faults are disarmed)."""
    return _ACTIVE


def fire(name: str) -> dict | None:
    """Hook-site probe: returns the fault's options dict when the named
    point is armed and its budget allows a fire, else None.  The disarmed
    path is a single global test — safe to call on hot paths."""
    registry = _ACTIVE
    if registry is None:
        return None
    return registry.fire(name)


class inject_faults:
    """Context manager arming a :class:`FaultRegistry` for the dynamic
    extent of the block — and exporting it via ``REPRO_FAULTS`` so
    spawn-started pool workers re-arm on import::

        with inject_faults({"pool.shard_hang": {"times": 1, "hang_s": 5}},
                           seed=7) as registry:
            ...
        # previous arming (usually: none) restored on exit
    """

    def __init__(self, specs: dict, *, seed: int = 0):
        self._specs = dict(specs)
        self._seed = seed
        self.registry: FaultRegistry | None = None

    def __enter__(self) -> FaultRegistry:
        global _ACTIVE
        self._prev = _ACTIVE
        self._prev_env = os.environ.get(_ENV_VAR)
        self.registry = FaultRegistry(self._specs, seed=self._seed)
        os.environ[_ENV_VAR] = self.registry.to_env()
        _ACTIVE = self.registry
        return self.registry

    def __exit__(self, *exc_info) -> bool:
        global _ACTIVE
        _ACTIVE = self._prev
        if self._prev_env is None:
            os.environ.pop(_ENV_VAR, None)
        else:
            os.environ[_ENV_VAR] = self._prev_env
        return False


def arm_from_env() -> FaultRegistry | None:
    """(Re-)arm from ``REPRO_FAULTS``.  Called at import so spawn pool
    workers and ``repro serve`` subprocesses inherit the arming; a
    malformed value is ignored with a warning rather than breaking the
    host process."""
    global _ACTIVE
    text = os.environ.get(_ENV_VAR)
    if not text:
        return None
    try:
        _ACTIVE = FaultRegistry.from_text(text)
    except (ValueError, KeyError, TypeError) as exc:
        warnings.warn(f"ignoring malformed {_ENV_VAR}={text!r}: {exc}",
                      RuntimeWarning, stacklevel=2)
        _ACTIVE = None
    return _ACTIVE


arm_from_env()
