"""A lightweight timing harness for the performance layer.

Perf work in this repo follows one rule: speedups are *measured*, never
asserted. The engines, the executor's per-job lane and the store each
wrap their hot sections in :func:`measure`, accumulating wall-clock statistics
into a process-wide :data:`REGISTRY`; ``repro ... --timing`` and the
``benchmarks/bench_perf.py`` harness render the result. The registry is
deliberately dumb — monotonic-clock durations bucketed by name — so it
can sit inside the per-run hot path without perturbing what it measures.
Every job runs in the submitting process, so one registry sees every
section: the executor's per-job lane (``exec.serial``), the batch
kernels and the merged packet runner (``batch.*``), the engines and the
store.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class TimingStat:
    """Accumulated wall-clock statistics for one named section."""

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = 0.0

    def add(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"duration must be non-negative, got {seconds}")
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
        }


class TimingRegistry:
    """Accumulates named wall-clock sections; cheap enough for hot paths.

    Nested :meth:`measure` regions attribute time to the *innermost*
    region: a parent's recorded duration is its elapsed time minus the
    elapsed time of every timed region that ran inside it. Totals across
    the registry therefore add up to real wall time instead of counting
    the same seconds once per nesting level (the batch scheduler runs
    inside sweep drivers, which would otherwise double-count).
    """

    def __init__(self) -> None:
        self._stats: dict[str, TimingStat] = {}
        # One accumulator per currently open measure() region: seconds
        # consumed by timed child regions, to subtract from the parent.
        self._child_seconds: list[float] = []

    def add(self, name: str, seconds: float) -> None:
        """Record one duration under ``name``."""
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = TimingStat()
        stat.add(seconds)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Time the enclosed block and record its *self* time under ``name``."""
        start = time.perf_counter()
        self._child_seconds.append(0.0)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            # The stack can only be empty here if reset() ran inside the
            # region; attribute the full elapsed time in that case.
            children = self._child_seconds.pop() if self._child_seconds else 0.0
            self.add(name, max(0.0, elapsed - children))
            if self._child_seconds:
                self._child_seconds[-1] += elapsed

    def stats(self) -> dict[str, TimingStat]:
        """A snapshot of the accumulated statistics, sorted by name."""
        return {name: self._stats[name] for name in sorted(self._stats)}

    def total(self, name: str) -> float:
        """Total seconds recorded under ``name`` (0.0 when absent)."""
        stat = self._stats.get(name)
        return stat.total if stat else 0.0

    def reset(self) -> None:
        self._stats.clear()
        self._child_seconds.clear()

    def render(self) -> str:
        """Human-readable timing table (empty string when nothing recorded)."""
        if not self._stats:
            return ""
        rows = [("section", "count", "total", "mean", "max")]
        for name, stat in self.stats().items():
            rows.append(
                (
                    name,
                    str(stat.count),
                    f"{stat.total:.3f}s",
                    f"{stat.mean * 1e3:.1f}ms",
                    f"{stat.max * 1e3:.1f}ms",
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = []
        for row in rows:
            lines.append(
                "  ".join(
                    cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                    for i, cell in enumerate(row)
                )
            )
        return "\n".join(lines)


#: The process-wide registry the perf layer reports into.
REGISTRY = TimingRegistry()

#: Module-level convenience: ``with timing.measure("sim.run"): ...``.
measure = REGISTRY.measure
