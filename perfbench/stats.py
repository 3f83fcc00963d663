"""Measurement rules shared by every workload.

* :func:`tail` — the highest percentile with at least ten samples beyond
  it (nearest-rank), so a reported tail is never one or two outliers.
* :func:`open_loop` — latency of open-loop requests counted from when
  each was *due*, so a stall also charges the requests queued behind it;
  the generator's own lateness is reported beside it.
* :func:`backlog_growing` — whether outstanding work rose through a rate
  step (the "without a growing backlog" half of the max-rate rule).
* :class:`Spans` — in-memory span recorder for the traced run.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def _rank(n: int, p: float) -> int:
    """Nearest rank ``ceil(p/100*n)``, immune to float round-up."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(xs: Sequence[float], p: float) -> float:
    """The *p*-th percentile by nearest rank."""
    return float(sorted(xs)[_rank(len(xs), p) - 1])


def tail(xs: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile that leaves at
    least :data:`TAIL_BEYOND` samples strictly above its rank; ``None``
    when the sample is too small to support any tail."""
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, float(sorted(xs)[rank - 1])


def supports(n: int, p: float) -> bool:
    """Whether *n* samples leave ten beyond the *p*-th percentile."""
    return n - _rank(n, p) >= TAIL_BEYOND


def spread(xs: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def open_loop(due: Sequence[float], sent: Sequence[float],
              done: Sequence[Optional[float]]
              ) -> Tuple[List[Optional[float]], List[float]]:
    """Per-request latency from due time and generator lateness.

    A request that never finished (refused or lost) has latency
    ``None``: it misses every latency limit.
    """
    lat = [None if d is None else d - u for u, d in zip(due, done)]
    late = [s - u for u, s in zip(due, sent)]
    return lat, late


def backlog_growing(samples: Sequence[Tuple[float, int]], rate: float,
                    workers: int) -> bool:
    """Whether outstanding requests rose through one rate step.

    *samples* are ``(time, outstanding)`` pairs taken at each
    submission.  The backlog grows when its least-squares slope exceeds
    5% of the offered rate (the step admits work faster than it
    completes it) and it ends above what the workers alone hold.
    """
    if len(samples) < 3:
        return False
    ts = [t for t, _ in samples]
    ys = [float(y) for _, y in samples]
    mt, my = statistics.fmean(ts), statistics.fmean(ys)
    var = sum((t - mt) ** 2 for t in ts)
    if var == 0.0:
        return False
    slope = sum((t - mt) * (y - my) for t, y in zip(ts, ys)) / var
    tail_mean = statistics.fmean(ys[-max(1, len(ys) // 5):])
    return slope > 0.05 * rate and tail_mean > workers + 2


class Spans:
    """Spans recorded around layer calls: name, start, end, parent.

    Each thread keeps its own stack, so a span's parent is the span open
    around it in the same thread; every span carries the operation id
    current in its thread (:meth:`op`).  Spans stay in memory until
    :meth:`to_json`.
    """

    def __init__(self):
        self.rows: List[Dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def op(self, op_id: str) -> None:
        """Set the operation id later spans of this thread belong to."""
        self._local.op = op_id

    def span(self, name: str, **attrs):
        return _Span(self, name, attrs)

    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def self_times(self) -> Dict[str, List[float]]:
        """``name -> [self seconds per span]``: a span's duration minus
        the union of its children's intervals."""
        kids: Dict[int, List[Tuple[float, float]]] = {}
        for row in self.rows:
            if row["parent"] is not None:
                kids.setdefault(row["parent"], []).append(
                    (row["start"], row["end"]))
        out: Dict[str, List[float]] = {}
        for i, row in enumerate(self.rows):
            covered, hi = 0.0, -math.inf
            for a, b in sorted(kids.get(i, ())):
                a = max(a, hi)
                if b > a:
                    covered += b - a
                hi = max(hi, b)
            out.setdefault(row["name"], []).append(
                row["end"] - row["start"] - covered)
        return out

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.rows if r["name"] == name]

    def to_json(self) -> List[Dict]:
        return list(self.rows)


class _Span:
    __slots__ = ("spans", "name", "attrs", "idx")

    def __init__(self, spans: Spans, name: str, attrs: Dict):
        self.spans, self.name, self.attrs = spans, name, attrs

    def __enter__(self):
        sp = self.spans
        stack = sp._stack()
        row = {"op": getattr(sp._local, "op", ""), "name": self.name,
               "parent": stack[-1] if stack else None,
               "start": time.perf_counter(), "end": None, **self.attrs}
        with sp._lock:
            self.idx = len(sp.rows)
            sp.rows.append(row)
        stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        self.spans.rows[self.idx]["end"] = time.perf_counter()
        self.spans._stack().pop()
        return False
