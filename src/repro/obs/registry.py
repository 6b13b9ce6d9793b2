"""Process-wide metrics registry: counters, gauges, histograms.

The registry is deliberately tiny and stdlib-only so every layer of
the package — store, exec, serve, accel, the core run loop — can
publish into it without import cycles or optional dependencies.  All
instruments share three properties:

* **Bounded label sets.**  Each metric declares its label names up
  front and caps the number of distinct label-value combinations
  (``max_series``).  Once the cap is hit, new combinations fold into a
  single reserved overflow series instead of growing without bound —
  a registry fed hostile or accidental high-cardinality labels (cell
  fingerprints, addresses) stays O(max_series), and the fold is
  visible both as the overflow series and as ``dropped_series``.
* **Cheap updates.**  An update is one lock acquire plus a dict
  write; instruments are meant to be called at cell/segment
  boundaries (milliseconds apart), never per simulated cycle.
* **Prometheus exposition.**  ``MetricsRegistry.render_prometheus``
  emits the text format (``# HELP`` / ``# TYPE`` / samples), which the
  serve daemon returns from its ``metrics`` op.

Instruments are get-or-create: asking for an existing name with the
same type and labels returns the same object, a mismatch raises.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.common.forksafe import fork_safe_lock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
]

#: Label-value used for every label of the reserved overflow series.
OVERFLOW_LABEL_VALUE = "__overflow__"

#: Default cap on distinct label-value combinations per metric.
DEFAULT_MAX_SERIES = 64

#: Default histogram bucket upper bounds, in seconds — spans sub-ms
#: store probes up to minute-long sweep requests.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class _Metric:
    """Shared machinery: label validation, bounded series creation."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self.max_series = int(max_series)
        self.dropped_series = 0
        self._series: Dict[Tuple[str, ...], object] = {}
        self._lock = fork_safe_lock()

    # -- label handling -------------------------------------------------

    def _series_key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names!r}, "
                f"got {tuple(sorted(labels))!r}"
            )
        try:
            key = tuple(str(labels[name]) for name in self.label_names)
        except KeyError:
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names!r}, "
                f"got {tuple(sorted(labels))!r}"
            ) from None
        return key

    def _slot(self, key: Tuple[str, ...], default) -> Tuple[str, ...]:
        """Return the key to update, folding overflow; caller holds lock."""
        if key in self._series:
            return key
        if len(self._series) >= self.max_series:
            self.dropped_series += 1
            key = tuple(OVERFLOW_LABEL_VALUE for _ in self.label_names)
            if key not in self._series:
                self._series[key] = default
            return key
        self._series[key] = default
        return key

    # -- introspection --------------------------------------------------

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._series.items())

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            self.dropped_series = 0

    def _render_labels(self, key: Tuple[str, ...]) -> str:
        if not self.label_names:
            return ""
        pairs = ", ".join(
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.label_names, key)
        )
        return "{" + pairs + "}"

    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, value in self.samples():
            lines.append(
                f"{self.name}{self._render_labels(key)} "
                f"{_format_value(value)}"
            )
        return lines


class Counter(_Metric):
    """Monotonically increasing value, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            key = self._slot(self._series_key(labels), 0)
            self._series[key] += amount  # type: ignore[operator]

    def value(self, **labels: object) -> float:
        key = self._series_key(labels)
        with self._lock:
            return float(self._series.get(key, 0))  # type: ignore[arg-type]

    def total(self) -> float:
        with self._lock:
            return float(sum(self._series.values()))  # type: ignore[arg-type]


class Gauge(_Metric):
    """A value that can go up and down (queue depths, residency)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            key = self._slot(self._series_key(labels), 0)
            self._series[key] = value

    def inc(self, amount: float = 1, **labels: object) -> None:
        with self._lock:
            key = self._slot(self._series_key(labels), 0)
            self._series[key] += amount  # type: ignore[operator]

    def dec(self, amount: float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = self._series_key(labels)
        with self._lock:
            return float(self._series.get(key, 0))  # type: ignore[arg-type]


class _HistogramSeries:
    __slots__ = ("buckets", "total", "count")

    def __init__(self, nbuckets: int) -> None:
        self.buckets = [0] * nbuckets
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Cumulative-bucket histogram of observations (latencies)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels, max_series)
        self.buckets = tuple(sorted(float(b) for b in buckets))

    def observe(self, value: float, **labels: object) -> None:
        with self._lock:
            key = self._slot(
                self._series_key(labels), _HistogramSeries(len(self.buckets))
            )
            series = self._series[key]
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series.buckets[i] += 1  # type: ignore[union-attr]
                    break
            series.total += value  # type: ignore[union-attr]
            series.count += 1  # type: ignore[union-attr]

    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, series in self.samples():
            base = list(zip(self.label_names, key))
            cumulative = 0
            for bound, count in zip(self.buckets, series.buckets):
                cumulative += count
                pairs = ", ".join(
                    f'{n}="{_escape_label(v)}"' for n, v in base
                    + [("le", _format_value(float(bound)))]
                )
                lines.append(
                    f"{self.name}_bucket{{{pairs}}} {cumulative}"
                )
            pairs = ", ".join(
                f'{n}="{_escape_label(v)}"' for n, v in base + [("le", "+Inf")]
            )
            lines.append(f"{self.name}_bucket{{{pairs}}} {series.count}")
            suffix = self._render_labels(key)
            lines.append(
                f"{self.name}_sum{suffix} {_format_value(series.total)}"
            )
            lines.append(f"{self.name}_count{suffix} {series.count}")
        return lines


class MetricsRegistry:
    """Named instruments, get-or-create, rendered together."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = fork_safe_lock()

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if type(metric) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind}, not {cls.kind}"
                    )
                if metric.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{metric.label_names!r}, not {tuple(labels)!r}"
                    )
                return metric
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Counter:
        return self._get_or_create(
            Counter, name, help, labels, max_series=max_series
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, help, labels, max_series=max_series
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels,
            max_series=max_series, buckets=buckets,
        )

    def get(self, name: str) -> "_Metric | None":
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render_prometheus(self) -> str:
        lines: List[str] = []
        for metric in self.metrics():
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        """Zero every series (tests); instruments stay registered."""
        for metric in self.metrics():
            metric.reset()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry every repro layer publishes into."""
    return _REGISTRY
