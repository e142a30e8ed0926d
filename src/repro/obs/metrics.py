"""Label-aware metrics primitives and the registry that renders them.

One :class:`MetricsRegistry` holds every metric *family* (a name, a help
string, a fixed tuple of label names and a type); a family hands out
*children* — one per distinct label-value tuple — which carry the actual
values.  Three primitive types cover the repo's telemetry:

* :class:`Counter` — monotonically non-decreasing sums (requests,
  batches, errors, accumulated seconds);
* :class:`Gauge` — instantaneous values that go both ways (in-flight
  requests, circuit-breaker state), optionally computed lazily at
  scrape time via :meth:`Gauge.set_function`;
* :class:`Histogram` — bucketed distributions backed by
  :class:`LatencyHistogram` (64 geometric buckets + overflow, O(1)
  records, mergeable snapshots) — the same histogram the serving layer
  has always used for p50/p95/p99, now shared by request latency and
  train-phase profiling alike.

Everything is thread-safe: each child takes a small private lock per
update, and the registry lock only guards family creation/iteration, so
scrapes never stall the hot path.

:meth:`MetricsRegistry.render` emits the Prometheus text exposition
format (``# HELP``/``# TYPE`` lines, one series per child,
``_bucket``/``_sum``/``_count`` expansion for histograms) — what
``GET /metrics`` serves.
"""

from __future__ import annotations

import bisect
import re
import threading

__all__ = ["LatencyHistogram", "Counter", "Gauge", "Histogram",
           "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _geometric_bounds(min_s: float, growth: float, count: int) -> list[float]:
    bounds, edge = [], min_s
    for _ in range(count):
        bounds.append(edge)
        edge *= growth
    return bounds


class LatencyHistogram:
    """Fixed geometric-bucket latency histogram with O(1) records.

    64 buckets spanning 50 microseconds to ~64 seconds (ratio 1.25), plus
    an overflow bucket: enough resolution for p50/p95/p99 under serving
    load without per-request allocation or unbounded sample storage.
    Percentiles report the upper edge of the bucket holding the target
    rank (clamped to the maximum observed sample), so they are
    conservative estimates within one bucket ratio of the true value.

    Not thread-safe on its own: its owner, a :class:`Histogram` child,
    serialises access under its lock.  Snapshots carry the raw bucket
    counts *and* the exact ``total_s`` so :meth:`merge_snapshots` can
    recompute aggregate percentiles and means from summed counts instead
    of averaging averages (or round-tripping through the rounded
    ``mean_ms``).
    """

    _BOUNDS = _geometric_bounds(5e-5, 1.25, 64)     # upper bucket edges, s

    def __init__(self):
        self._counts = [0] * (len(self._BOUNDS) + 1)    # +1: overflow
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        seconds = max(float(seconds), 0.0)
        self._counts[bisect.bisect_left(self._BOUNDS, seconds)] += 1
        self.count += 1
        self.total_s += seconds
        self.max_s = max(self.max_s, seconds)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q`` in [0, 100] percentile estimate in seconds."""
        return self._percentile_of(self._counts, q, self.max_s)

    @classmethod
    def _percentile_of(cls, counts, q: float, max_s: float) -> float:
        total = sum(counts)
        if not total:
            return 0.0
        target = max(1, -(-int(total * q) // 100))      # ceil(total*q/100)
        seen = 0
        for i, bucket in enumerate(counts):
            seen += bucket
            if seen >= target:
                edge = cls._BOUNDS[i] if i < len(cls._BOUNDS) else max_s
                return min(edge, max_s)
        return max_s

    def snapshot(self) -> dict:
        """JSON-ready percentiles plus the raw buckets (for merging)."""
        return self._render(list(self._counts), self.count, self.total_s,
                            self.max_s)

    @classmethod
    def _render(cls, counts, count, total_s, max_s) -> dict:
        return {"count": count,
                "mean_ms": (total_s / count if count else 0.0) * 1e3,
                "total_s": total_s,
                "p50_ms": cls._percentile_of(counts, 50, max_s) * 1e3,
                "p95_ms": cls._percentile_of(counts, 95, max_s) * 1e3,
                "p99_ms": cls._percentile_of(counts, 99, max_s) * 1e3,
                "max_ms": max_s * 1e3,
                "buckets": counts}

    @classmethod
    def merge_snapshots(cls, docs) -> dict:
        """Aggregate snapshot dicts (empty ones skipped): sum buckets,
        recompute percentiles."""
        docs = [d for d in docs if d]
        counts = [0] * (len(cls._BOUNDS) + 1)
        for doc in docs:
            counts = [a + b for a, b in zip(counts, doc["buckets"],
                                            strict=True)]
        return cls._render(counts,
                           sum(d["count"] for d in docs),
                           sum(d["total_s"] for d in docs),
                           max((d["max_ms"] / 1e3 for d in docs),
                               default=0.0))


def _escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"') \
                     .replace("\n", "\\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Child:
    """One labelled series; subclassed per metric type."""

    __slots__ = ("_lock", "labels")

    def __init__(self, labels: tuple[str, ...]):
        self._lock = threading.Lock()
        self.labels = labels


class _CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, labels):
        super().__init__(labels)
        self._value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value


class _GaugeChild(_Child):
    __slots__ = ("_value", "_fn")

    def __init__(self, labels):
        super().__init__(labels)
        self._value = 0
        self._fn = None

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount=1) -> None:
        with self._lock:
            self._value -= amount

    def set_max(self, value) -> None:
        """Keep the running maximum of observed values."""
        with self._lock:
            self._value = max(self._value, value)

    def set_function(self, fn) -> None:
        """Compute the value lazily at scrape time (e.g. uptime)."""
        with self._lock:
            self._fn = fn

    @property
    def value(self):
        with self._lock:
            if self._fn is not None:
                return self._fn()
            return self._value


class _HistogramChild(_Child):
    __slots__ = ("raw",)

    def __init__(self, labels):
        super().__init__(labels)
        self.raw = LatencyHistogram()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.raw.record(seconds)

    def snapshot(self) -> dict:
        with self._lock:
            return self.raw.snapshot()

    @property
    def count(self) -> int:
        with self._lock:
            return self.raw.count

    @property
    def total_s(self) -> float:
        with self._lock:
            return self.raw.total_s


_CHILD_TYPES = {"counter": _CounterChild, "gauge": _GaugeChild,
                "histogram": _HistogramChild}


class _Family:
    """A named metric family: fixed label names, one child per value set."""

    def __init__(self, name: str, help: str, kind: str,
                 label_names: tuple[str, ...]):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = tuple(label_names)
        self._children: dict[tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()

    def labels(self, *values, **kv):
        """The child for one label-value tuple (created on first use)."""
        if kv:
            if values:
                raise TypeError("pass label values positionally or by "
                                "name, not both")
            try:
                values = tuple(str(kv[name]) for name in self.label_names)
            except KeyError as exc:
                raise ValueError(f"{self.name}: missing label {exc}") \
                    from None
            if len(kv) != len(self.label_names):
                raise ValueError(
                    f"{self.name}: expected labels {self.label_names}, "
                    f"got {tuple(kv)}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValueError(f"{self.name}: expected "
                             f"{len(self.label_names)} label value(s), "
                             f"got {len(values)}")
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = _CHILD_TYPES[self.kind](values)
                self._children[values] = child
            return child

    def remove(self, *values, **kv) -> None:
        """Drop one child (e.g. an evicted serving route's series)."""
        if kv:
            values = tuple(str(kv[name]) for name in self.label_names)
        else:
            values = tuple(str(v) for v in values)
        with self._lock:
            self._children.pop(values, None)

    def children(self) -> list[_Child]:
        with self._lock:
            return [self._children[key]
                    for key in sorted(self._children)]

    # ------------------------------------------------------------------
    def _series_name(self, labels: tuple[str, ...],
                     extra: tuple[tuple[str, str], ...] = ()) -> str:
        pairs = [f'{name}="{_escape_label(value)}"'
                 for name, value in zip(self.label_names, labels)]
        pairs += [f'{name}="{_escape_label(value)}"'
                  for name, value in extra]
        return f"{self.name}{{{','.join(pairs)}}}" if pairs else self.name

    def render(self) -> list[str]:
        """Prometheus text-format lines for this family."""
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for child in self.children():
            if self.kind == "histogram":
                snap = child.snapshot()
                cumulative = 0
                for i, count in enumerate(snap["buckets"]):
                    cumulative += count
                    le = (f"{LatencyHistogram._BOUNDS[i]:g}"
                          if i < len(LatencyHistogram._BOUNDS) else "+Inf")
                    lines.append(
                        f"{self._bucket_name(child.labels, le)} {cumulative}")
                lines.append(f"{self._sub_name('_sum', child.labels)} "
                             f"{_format_value(snap['total_s'])}")
                lines.append(f"{self._sub_name('_count', child.labels)} "
                             f"{snap['count']}")
            else:
                lines.append(f"{self._series_name(child.labels)} "
                             f"{_format_value(child.value)}")
        return lines

    def _bucket_name(self, labels: tuple[str, ...], le: str) -> str:
        pairs = [f'{name}="{_escape_label(value)}"'
                 for name, value in zip(self.label_names, labels)]
        pairs.append(f'le="{le}"')
        return f"{self.name}_bucket{{{','.join(pairs)}}}"

    def _sub_name(self, suffix: str, labels: tuple[str, ...]) -> str:
        pairs = [f'{name}="{_escape_label(value)}"'
                 for name, value in zip(self.label_names, labels)]
        body = f"{{{','.join(pairs)}}}" if pairs else ""
        return f"{self.name}{suffix}{body}"


# Convenience aliases so call sites read naturally.
Counter = _CounterChild
Gauge = _GaugeChild
Histogram = _HistogramChild


class MetricsRegistry:
    """Create-or-get metric families and render them for scraping.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the existing family (and rejects a conflicting
    type or label set, which would corrupt the exposition).  A fresh
    registry per server keeps multi-server tests and embedded uses
    isolated; :func:`repro.obs.get_registry` holds the process default.
    """

    def __init__(self):
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _family(self, name: str, help: str, kind: str,
                label_names) -> _Family:
        label_names = tuple(label_names)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, help, kind, label_names)
                self._families[name] = family
            elif family.kind != kind or family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind} with labels {family.label_names}")
            return family

    def counter(self, name: str, help: str, label_names=()) -> _Family:
        return self._family(name, help, "counter", label_names)

    def gauge(self, name: str, help: str, label_names=()) -> _Family:
        return self._family(name, help, "gauge", label_names)

    def histogram(self, name: str, help: str, label_names=()) -> _Family:
        return self._family(name, help, "histogram", label_names)

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name]
                    for name in sorted(self._families)]

    def collect(self) -> dict:
        """A JSON-ready snapshot of every series (tests, debugging)."""
        doc: dict[str, dict] = {}
        for family in self.families():
            series = {}
            for child in family.children():
                key = ",".join(f"{n}={v}" for n, v in
                               zip(family.label_names, child.labels))
                series[key] = (child.snapshot()
                               if family.kind == "histogram"
                               else child.value)
            doc[family.name] = {"type": family.kind, "help": family.help,
                                "series": series}
        return doc

    def render(self) -> str:
        """The Prometheus text exposition document (``GET /metrics``)."""
        lines: list[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + "\n"
