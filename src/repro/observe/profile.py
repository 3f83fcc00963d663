"""Thread-based sampling profiler for cooperative graph runs.

The cgsim scheduler runs every kernel coroutine on one thread, so a
sampler thread reading ``sys._current_frames()`` for that thread at a
fixed interval sees exactly the frame stack of whichever task is
running.  Attribution does not rely on frame inspection alone: the
scheduler publishes its current task (``CooperativeScheduler._current``),
so samples land on task names — a fused chain's members are ordinary
tasks.

The output is a :class:`ProfileReport`: per-task sample counts (a
self-time table, ``samples * interval`` seconds each) and collapsed
stacks in Brendan Gregg's flamegraph format (``root;frame;frame N``),
written by :meth:`ProfileReport.write_collapsed` to a ``*.collapsed``
file that ``flamegraph.pl`` / speedscope / inferno consume directly.

Opt in through :func:`repro.exec.run_graph`::

    run_graph(g, src, out, profile="sample")            # default 2ms
    run_graph(g, src, out, profile={"mode": "sample",
                                    "interval": 0.001,
                                    "out": "profiles/"})

For ``cgsim-mp`` the manager forwards the sampling interval to every
forked worker; per-worker reports are merged into one graph-wide table
(sample counts add), and the flamegraph filename carries the run's
correlation id (:func:`flamegraph_name`).
"""

from __future__ import annotations

import re
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import GraphRuntimeError

__all__ = [
    "DEFAULT_INTERVAL_S",
    "FLAME_SUFFIX",
    "ProfileReport",
    "SamplingProfiler",
    "coerce_profile",
    "flamegraph_name",
]

#: Default sampling period: 2ms keeps sampler overhead well under a
#: percent while resolving kernels that run for tens of milliseconds.
DEFAULT_INTERVAL_S = 0.002

#: Collapsed-stack flamegraph file suffix.
FLAME_SUFFIX = ".collapsed"

#: Frames deeper than this are truncated (defensive bound only).
_MAX_DEPTH = 64

_UNSAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]+")


def flamegraph_name(graph: str, run_id: str) -> str:
    """``<graph>_<run_id>.collapsed`` with both parts sanitised — the
    run_id stays findable verbatim in the filename (correlation ids are
    restricted to filename-safe characters at the serve boundary)."""
    g = _UNSAFE_NAME.sub("-", graph or "graph").strip("-") or "graph"
    r = _UNSAFE_NAME.sub("-", run_id or "run").strip("-") or "run"
    return f"{g}_{r}{FLAME_SUFFIX}"


class ProfileReport:
    """Merged sampling results for one run (possibly many workers)."""

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S,
                 duration_s: float = 0.0, n_samples: int = 0,
                 samples: Optional[Dict[str, int]] = None,
                 stacks: Optional[Dict[str, int]] = None):
        self.interval_s = interval_s
        self.duration_s = duration_s
        self.n_samples = n_samples
        #: task/member name -> number of samples attributed to it
        self.samples: Dict[str, int] = dict(samples or {})
        #: collapsed stack ("root;frame;frame") -> sample count
        self.stacks: Dict[str, int] = dict(stacks or {})

    # -- derived views -------------------------------------------------------

    def self_table(self) -> Dict[str, Dict[str, float]]:
        """Per-kernel self time, the ``TraceMetrics.profile`` payload:
        ``{task: {"samples": n, "self_s": n * interval}}``, hottest
        first."""
        table = {}
        for task, n in sorted(self.samples.items(),
                              key=lambda kv: (-kv[1], kv[0])):
            table[task] = {"samples": n,
                           "self_s": round(n * self.interval_s, 6)}
        return table

    def collapsed(self) -> str:
        """The collapsed-stack text document (one ``stack count`` line
        per distinct stack, sorted for reproducibility)."""
        lines = [f"{stack} {count}"
                 for stack, count in sorted(self.stacks.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path) -> Path:
        """Write :meth:`collapsed` to *path* (parents created)."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.collapsed())
        return p

    # -- serialization / merge (the cgsim-mp wire) ---------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "interval_s": self.interval_s,
            "duration_s": self.duration_s,
            "n_samples": self.n_samples,
            "samples": dict(self.samples),
            "stacks": dict(self.stacks),
        }

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "ProfileReport":
        return ProfileReport(
            interval_s=float(d.get("interval_s", DEFAULT_INTERVAL_S)),
            duration_s=float(d.get("duration_s", 0.0)),
            n_samples=int(d.get("n_samples", 0)),
            samples={str(k): int(v)
                     for k, v in (d.get("samples") or {}).items()},
            stacks={str(k): int(v)
                    for k, v in (d.get("stacks") or {}).items()},
        )

    def merge(self, other: "ProfileReport") -> "ProfileReport":
        """Counts add; duration takes the max (workers ran
        concurrently); the interval must agree or the self-time
        arithmetic would silently mix sample weights."""
        if other.n_samples and self.n_samples and \
                other.interval_s != self.interval_s:
            raise GraphRuntimeError(
                f"cannot merge profiles with different intervals "
                f"({self.interval_s} vs {other.interval_s})"
            )
        merged = ProfileReport(
            interval_s=self.interval_s if self.n_samples
            else other.interval_s,
            duration_s=max(self.duration_s, other.duration_s),
            n_samples=self.n_samples + other.n_samples,
            samples=dict(self.samples),
            stacks=dict(self.stacks),
        )
        for k, v in other.samples.items():
            merged.samples[k] = merged.samples.get(k, 0) + v
        for k, v in other.stacks.items():
            merged.stacks[k] = merged.stacks.get(k, 0) + v
        return merged

    def __repr__(self):
        return (f"<ProfileReport {self.n_samples} samples @ "
                f"{self.interval_s * 1e3:.3g}ms over "
                f"{self.duration_s:.3f}s>")



class SamplingProfiler:
    """Fixed-interval stack sampler over one target thread.

    Thread-based rather than signal-based: ``SIGPROF`` handlers may
    only run on the main thread and are off-limits inside forked
    cgsim-mp workers and the threaded serve worker pool, while a
    daemon sampler thread + ``sys._current_frames()`` works in every
    execution context this repo has.  All sample state is touched only
    by the sampler thread; readers call :meth:`report` after
    :meth:`stop`.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL_S,
                 out: Optional[str] = None):
        if interval <= 0:
            raise GraphRuntimeError(
                f"profile interval must be > 0, got {interval}")
        self.interval = float(interval)
        #: Optional output directory (or file path) for the collapsed
        #: flamegraph; written by ``ExecutionBackend.run`` after the run.
        self.out = out
        self._stop_ev = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._tid: Optional[int] = None
        self._label_fn: Callable[[], str] = lambda: ""
        self._started_at = 0.0
        self._report = ProfileReport(interval_s=self.interval)

    def start(self, label_fn: Optional[Callable[[], str]] = None,
              thread_id: Optional[int] = None) -> "SamplingProfiler":
        """Begin sampling *thread_id* (default: the calling thread —
        the scheduler loop starts the profiler from its own thread)."""
        if self._thread is not None:
            raise GraphRuntimeError("profiler already started")
        self._tid = thread_id if thread_id is not None \
            else threading.get_ident()
        if label_fn is not None:
            self._label_fn = label_fn
        self._stop_ev.clear()
        self._started_at = perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> ProfileReport:
        """Stop sampling (idempotent) and return the report so far."""
        if self._thread is not None:
            self._stop_ev.set()
            self._thread.join(timeout=5.0)
            self._thread = None
            self._report.duration_s += perf_counter() - self._started_at
        return self._report

    def report(self) -> ProfileReport:
        return self._report

    # -- sampler thread ------------------------------------------------------

    def _loop(self) -> None:
        rep = self._report
        tid = self._tid
        wait = self._stop_ev.wait
        frames_of = sys._current_frames
        while not wait(self.interval):
            frame = frames_of().get(tid)
            if frame is None:  # target thread exited
                continue
            try:
                root = self._label_fn() or "(scheduler)"
            except Exception:
                root = "(scheduler)"
            parts = [root]
            depth = 0
            f = frame
            stack = []
            while f is not None and depth < _MAX_DEPTH:
                stack.append(f.f_code.co_name)
                f = f.f_back
                depth += 1
            parts.extend(reversed(stack))
            key = ";".join(parts)
            rep.samples[root] = rep.samples.get(root, 0) + 1
            rep.stacks[key] = rep.stacks.get(key, 0) + 1
            rep.n_samples += 1


def coerce_profile(spec: Any) -> Tuple[bool, Optional[SamplingProfiler]]:
    """Normalise the user-facing ``profile=`` run option.

    ==========================  ===========================================
    ``None`` / ``False``        off → ``(False, None)``
    ``True``                    timing stats only (the pre-existing
                                behaviour) → ``(True, None)``
    ``"sample"``                timing stats + default-interval sampler
    ``dict``                    ``{"mode": "sample", "interval": s,
                                "out": dir-or-file}``
    :class:`SamplingProfiler`   caller-built sampler, used as-is
    ==========================  ===========================================
    """
    if spec is None or spec is False:
        return False, None
    if spec is True:
        return True, None
    if isinstance(spec, SamplingProfiler):
        return True, spec
    if isinstance(spec, str):
        if spec in ("sample", "sampling"):
            return True, SamplingProfiler()
        raise GraphRuntimeError(
            f"unknown profile mode {spec!r}; expected 'sample'")
    if isinstance(spec, dict):
        mode = spec.get("mode", "sample")
        if mode not in ("sample", "sampling"):
            raise GraphRuntimeError(
                f"unknown profile mode {mode!r}; expected 'sample'")
        unknown = set(spec) - {"mode", "interval", "out"}
        if unknown:
            raise GraphRuntimeError(
                f"unknown profile options: {sorted(unknown)}")
        return True, SamplingProfiler(
            interval=float(spec.get("interval", DEFAULT_INTERVAL_S)),
            out=spec.get("out"),
        )
    raise GraphRuntimeError(
        f"cannot interpret profile={spec!r}; pass True, 'sample', a "
        f"config dict, or a SamplingProfiler"
    )
