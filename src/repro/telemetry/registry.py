"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is deliberately passive: it never reads a clock and never
allocates on the query hot path beyond a dictionary update, so the cost
of a metric update is one dict lookup plus an add.  All wall-clock
measurement happens in the watcher; the registry only *stores* the
durations it is handed.

Histograms keep **per-bucket** (non-cumulative) counts internally so the
invariant ``sum(buckets) == count`` holds exactly; the cumulative view
required by the Prometheus text exposition format is computed only at
render time.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_DURATION_BUCKETS_MS",
]

#: Default latency buckets (milliseconds).  Roughly logarithmic, chosen to
#: bracket the paper-listing workloads (sub-millisecond) up to slow
#: analytical queries.
DEFAULT_DURATION_BUCKETS_MS: Tuple[float, ...] = (
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
)

LabelValues = Tuple[str, ...]


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape HELP text per the exposition format: backslash and newline
    only (quotes are legal in HELP, unlike in label values)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    parts = ", ".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + parts + "}"


class _Metric:
    """Shared bookkeeping for one named metric family.

    Every mutation and every read of ``_series`` happens under the
    per-metric ``_lock``: concurrent sessions increment the same counter
    from worker threads, and ``value = value + amount`` on a plain dict
    would lose increments under that interleaving.
    """

    kind = "untyped"

    __slots__ = ("name", "help", "labelnames", "_series", "_lock")

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: Dict[LabelValues, object] = {}
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, object]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def labelsets(self) -> List[Dict[str, str]]:
        """Every label combination observed so far, as dicts."""
        with self._lock:
            keys = sorted(self._series)
        return [dict(zip(self.labelnames, key)) for key in keys]


class Counter(_Metric):
    """A monotonically increasing value, optionally partitioned by labels."""

    kind = "counter"

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value for one label combination (0.0 if never bumped)."""
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return float(sum(self._series.values()))

    def samples(self) -> Iterable[Tuple[LabelValues, float]]:
        with self._lock:
            snapshot = sorted(self._series.items())
        for key, value in snapshot:
            yield key, float(value)


class Gauge(_Metric):
    """A value that can go up and down (pool sizes, staleness flags...)."""

    kind = "gauge"

    __slots__ = ()

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def samples(self) -> Iterable[Tuple[LabelValues, float]]:
        with self._lock:
            snapshot = sorted(self._series.items())
        for key, value in snapshot:
            yield key, float(value)


class _HistogramSeries:
    """Per-labelset histogram state: per-bucket counts plus sum."""

    __slots__ = ("buckets", "sum")

    def __init__(self, n_buckets: int):
        # One slot per finite bucket plus the +Inf overflow bucket.
        self.buckets = [0] * (n_buckets + 1)
        self.sum = 0.0

    @property
    def count(self) -> int:
        return sum(self.buckets)

    def copy(self) -> "_HistogramSeries":
        """A point-in-time copy (what :meth:`Histogram.samples` hands out)."""
        snap = _HistogramSeries.__new__(_HistogramSeries)
        snap.buckets = list(self.buckets)
        snap.sum = self.sum
        return snap


class Histogram(_Metric):
    """Fixed-boundary histogram (e.g. query latency distribution)."""

    kind = "histogram"

    __slots__ = ("boundaries",)

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS_MS,
    ):
        super().__init__(name, help, labelnames)
        boundaries = tuple(sorted(float(b) for b in buckets))
        if not boundaries:
            raise ValueError(f"histogram {self.name!r} needs >= 1 bucket")
        self.boundaries = boundaries

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.boundaries))
                self._series[key] = series
            series.buckets[bisect_left(self.boundaries, value)] += 1
            series.sum += value

    def bucket_counts(self, **labels: object) -> List[int]:
        """Non-cumulative per-bucket counts (last entry is +Inf overflow)."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return [0] * (len(self.boundaries) + 1)
            return list(series.buckets)

    def count(self, **labels: object) -> int:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return 0 if series is None else series.count

    def sum_(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return 0.0 if series is None else series.sum

    def samples(self) -> Iterable[Tuple[LabelValues, _HistogramSeries]]:
        # Hand out copies: a renderer iterating buckets must not race
        # concurrent observe() calls mutating them in place.
        with self._lock:
            snapshot = [
                (key, series.copy())
                for key, series in sorted(self._series.items())
            ]
        yield from snapshot


class MetricsRegistry:
    """A named collection of metrics with idempotent registration."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- registration -------------------------------------------------------

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric) or (
                    existing.labelnames != metric.labelnames
                ):
                    raise ValueError(
                        f"metric {metric.name!r} already registered with a "
                        "different kind or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        # Prometheus naming convention: counters carry a _total suffix.
        # Enforced at registration so every counter this engine ever
        # exposes scrapes cleanly into standard tooling.
        if not name.endswith("_total"):
            raise ValueError(
                f"counter {name!r} must end with '_total' "
                "(Prometheus naming convention)"
            )
        return self._register(Counter(name, help, labelnames))  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS_MS,
    ) -> Histogram:
        return self._register(  # type: ignore[return-value]
            Histogram(name, help, labelnames, buckets)
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # -- export -------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """A plain-dict dump of every metric, for ``db.metrics()`` / JSON."""
        out: Dict[str, dict] = {}
        for metric in self.metrics():
            entry: dict = {
                "kind": metric.kind,
                "help": metric.help,
                "labels": list(metric.labelnames),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.boundaries)
                entry["series"] = [
                    {
                        "labels": dict(zip(metric.labelnames, key)),
                        "bucket_counts": list(series.buckets),
                        "sum": series.sum,
                        "count": series.count,
                    }
                    for key, series in metric.samples()
                ]
            else:
                entry["series"] = [
                    {
                        "labels": dict(zip(metric.labelnames, key)),
                        "value": value,
                    }
                    for key, value in metric.samples()  # type: ignore[union-attr]
                ]
            out[metric.name] = entry
        return out

    def render_prometheus(self) -> str:
        """Render every metric in the Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self.metrics():
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                le_names = metric.labelnames + ("le",)
                for key, series in metric.samples():
                    cumulative = 0
                    for boundary, bucket in zip(
                        metric.boundaries, series.buckets
                    ):
                        cumulative += bucket
                        labels = _render_labels(
                            le_names, key + (_format_value(boundary),)
                        )
                        lines.append(
                            f"{metric.name}_bucket{labels} {cumulative}"
                        )
                    labels = _render_labels(le_names, key + ("+Inf",))
                    lines.append(
                        f"{metric.name}_bucket{labels} {series.count}"
                    )
                    base = _render_labels(metric.labelnames, key)
                    lines.append(
                        f"{metric.name}_sum{base} {_format_value(series.sum)}"
                    )
                    lines.append(f"{metric.name}_count{base} {series.count}")
            else:
                for key, value in metric.samples():  # type: ignore[union-attr]
                    labels = _render_labels(metric.labelnames, key)
                    lines.append(
                        f"{metric.name}{labels} {_format_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def rows(self) -> List[Tuple[str, str, float]]:
        """Flat ``(metric, labels, value)`` rows for ``SHOW STATS``.

        Histograms contribute ``<name>_count`` and ``<name>_sum`` rows plus
        one non-cumulative ``<name>_bucket`` row per bucket boundary.
        """
        out: List[Tuple[str, str, float]] = []
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                for key, series in metric.samples():
                    base = ", ".join(
                        f"{n}={v}" for n, v in zip(metric.labelnames, key)
                    )
                    for boundary, bucket in zip(
                        metric.boundaries, series.buckets
                    ):
                        le = f"le={_format_value(boundary)}"
                        label = f"{base}, {le}" if base else le
                        out.append((f"{metric.name}_bucket", label, float(bucket)))
                    label = f"{base}, le=+Inf" if base else "le=+Inf"
                    out.append(
                        (f"{metric.name}_bucket", label, float(series.buckets[-1]))
                    )
                    out.append((f"{metric.name}_sum", base, float(series.sum)))
                    out.append(
                        (f"{metric.name}_count", base, float(series.count))
                    )
            else:
                for key, value in metric.samples():  # type: ignore[union-attr]
                    label = ", ".join(
                        f"{n}={v}" for n, v in zip(metric.labelnames, key)
                    )
                    out.append((metric.name, label, float(value)))
        return out
