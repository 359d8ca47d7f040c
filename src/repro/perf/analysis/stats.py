"""General call statistics (paper §4.3.1).

Per ecall/ocall: call counts, mean and median duration, standard deviation
and the 90th/95th/99th percentiles; plus histogram and scatter series for
the Figure 7/8-style visualisations.

Remember the duration convention (§4.1.2): ocall durations are execution
time only and compare directly to the transition cost, while ecall
durations include one transition round-trip, which must be subtracted
before such comparisons.

Every entry point takes :class:`~repro.perf.columns.CallColumns`;
durations come out of the arrays directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.columns import CallColumns
from repro.perf.events import ECALL


@dataclass(frozen=True)
class CallStatistics:
    """Summary statistics for one call (one ecall or ocall name)."""

    kind: str
    name: str
    count: int
    total_ns: int
    mean_ns: float
    median_ns: float
    std_ns: float
    p90_ns: float
    p95_ns: float
    p99_ns: float
    min_ns: int
    max_ns: int

    def row(self) -> tuple:
        """Tabular form for reports."""
        return (
            self.kind,
            self.name,
            self.count,
            round(self.mean_ns),
            round(self.median_ns),
            round(self.std_ns),
            round(self.p90_ns),
            round(self.p95_ns),
            round(self.p99_ns),
        )


@dataclass(frozen=True)
class Histogram:
    """Execution-time histogram (Figure 7 uses 100 bins)."""

    counts: tuple[int, ...]
    edges_ns: tuple[float, ...]

    def render(self, width: int = 60, max_rows: int = 25) -> str:
        """ASCII rendering for terminal reports."""
        if not self.counts:
            return "(empty histogram)"
        # Re-bin down to max_rows rows for readability.
        counts = np.asarray(self.counts, dtype=float)
        edges = np.asarray(self.edges_ns)
        if len(counts) > max_rows:
            factor = -(-len(counts) // max_rows)
            pad = (-len(counts)) % factor
            counts = np.pad(counts, (0, pad)).reshape(-1, factor).sum(axis=1)
            edges = edges[:: factor]
        peak = counts.max() or 1.0
        lines = []
        for i, count in enumerate(counts):
            low = edges[i] / 1000.0
            bar = "#" * int(round(width * count / peak))
            lines.append(f"{low:10.1f} us | {bar} {int(count)}")
        return "\n".join(lines)


def execution_durations_ns(events: CallColumns, transition_round_trip_ns: int) -> np.ndarray:
    """Durations adjusted to *execution* time.

    Ecall durations include one transition round-trip (§4.1.2); ocall
    durations already exclude it.
    """
    values = events.duration_ns()
    if len(events) > 0 and events.kind[0] == ECALL:
        values = np.maximum(values - int(transition_round_trip_ns), 0)
    return values


def compute_statistics(kind: str, name: str, events: CallColumns) -> CallStatistics:
    """Summary statistics over one group of events."""
    return _statistics_from_values(kind, name, events.duration_ns())


def _statistics_from_values(kind: str, name: str, values: np.ndarray) -> CallStatistics:
    if len(values) == 0:
        return CallStatistics(kind, name, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
    return CallStatistics(
        kind=kind,
        name=name,
        count=int(len(values)),
        total_ns=int(values.sum()),
        mean_ns=float(values.mean()),
        median_ns=float(np.median(values)),
        std_ns=float(values.std()),
        p90_ns=float(np.percentile(values, 90)),
        p95_ns=float(np.percentile(values, 95)),
        p99_ns=float(np.percentile(values, 99)),
        min_ns=int(values.min()),
        max_ns=int(values.max()),
    )


def all_statistics(events: CallColumns) -> list[CallStatistics]:
    """Statistics for every distinct call, ordered by total time spent.

    Ties keep first-appearance order in ``(start, id)``.
    """
    from repro.perf.analysis.streaming import fold_columns

    return fold_columns(events).statistics()


def histogram(events: CallColumns, bins: int = 100) -> Histogram:
    """Execution-time histogram over a group of events (Figure 7)."""
    values = events.duration_ns()
    if len(values) == 0:
        return Histogram(counts=(), edges_ns=())
    counts, edges = np.histogram(values, bins=bins)
    return Histogram(counts=tuple(int(c) for c in counts), edges_ns=tuple(float(e) for e in edges))


def scatter_series(events: CallColumns) -> tuple[np.ndarray, np.ndarray]:
    """(start time, duration) series over the run (Figure 8)."""
    return events.start_ns, events.duration_ns()


def fraction_shorter_than(values: np.ndarray, threshold_ns: float) -> float:
    """Fraction of ``values`` strictly below ``threshold_ns``."""
    if len(values) == 0:
        return 0.0
    return float((values < threshold_ns).mean())
