"""The run-option table: one row per run option, one cell per backend.

A row names an option and the one coercer that validates it; a cell
says what one backend does with it: *honoured* (with its default),
*ignored* (validated, then dropped) or *rejected* (setting it raises
the cell's reason).  A backend without a cell rejects the option as
unknown.  ``run_graph``, ``ExecutionBackend.prepare``, the graph call
operators and the serve wire all bind options here into a frozen
:class:`RunSpec`; ``python -m repro.exec list-backends`` prints it.  A
new engine adds its column: a :data:`MODELS` entry and a cell in each
row it honours, ignores or rejects with a reason.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, Mapping, Tuple

from ..checkpoint.policy import coerce_checkpoint
from ..core.queues import DEFAULT_QUEUE_CAPACITY
from ..core.transport import TransportInfo, get_transport
from ..errors import CheckpointError, GraphRuntimeError
from ..faults.plan import FaultPlan
from ..faults.report import RetryPolicy
from ..mp.manager import DEFAULT_RING_CAPACITY
from ..mp.shm_ring import DEFAULT_RING_BYTES
from ..observe import make_tracer
from ..observe.health import coerce_watchdog
from ..observe.profile import coerce_profile
from .optimize import OPTIMIZE_LEVELS


@dataclass(frozen=True)
class Cell:
    """What one backend does with one option."""

    action: str                     # "honoured" | "ignored" | "rejected"
    default: Any = None
    note: str = ""                  # why ignored / the rejection message
    #: Honoured: the only values taken.  Rejected: values still taken.
    only: Tuple[Any, ...] = ()
    error: type = GraphRuntimeError


honour = partial(Cell, "honoured")          # honour(default, only=...)
ignore = partial(Cell, "ignored", None)     # ignore(note)
reject = partial(Cell, "rejected", None)    # reject(note, only=, error=)


@dataclass(frozen=True)
class Option:
    """One row: an option's coercer, its meaning, and every backend's
    cell (``OPTIONS`` keys rows by option name)."""

    coerce: Callable[[Any], Any]
    doc: str
    cells: Dict[str, Cell]
    wire: bool = False          # settable in a repro.serve submission
    run_level: bool = False     # applied by run_graph, not by an engine


def _checked(name: str, what: str, ok: Callable[[Any], bool],
             convert: Callable[[Any], Any] = lambda v: v):
    """The coercer of option *name*: values passing *ok* are converted,
    any other raises saying what the option must be."""
    def coerce(value: Any) -> Any:
        if not ok(value):
            raise GraphRuntimeError(f"{name} must be {what}, got {value!r}")
        return convert(value)
    return coerce


def _positive_int(name: str):
    return _checked(name, "a positive integer", lambda v: isinstance(
        v, numbers.Integral) and not isinstance(v, bool) and v >= 1, int)


def _seconds(name: str):
    return _checked(name, "a positive number of seconds", lambda v: isinstance(
        v, (int, float)) and not isinstance(v, bool) and v > 0, float)


def _flag(name: str):
    return _checked(name, "True or False", lambda v: isinstance(v, bool))


def _one_of(name: str, choices: Tuple[str, ...]):
    return _checked(name, f"one of {choices}", lambda v: v in choices)


def _transport(value: Any) -> TransportInfo:
    """A registered transport the cooperative runtime can drive."""
    info = value if isinstance(value, TransportInfo) \
        else get_transport(value)
    if not info.scheduler_aware:
        raise GraphRuntimeError(
            f"transport {info.name!r} is not scheduler-aware; the "
            f"cooperative runtime needs a transport that wakes "
            f"scheduler waiter lists (e.g. 'ring')")
    return info


def _profile(value: Any) -> Any:
    """``True``/``False`` for timing alone, else the sampler to run."""
    timing, sampler = coerce_profile(value)
    return timing if sampler is None else sampler


def coerce_retry(retry: Any):
    """A RetryPolicy, an int attempt count, or None; one attempt
    normalises to ``None``, and a count below one raises ``ValueError``
    (a typo like ``retry=0`` must not silently disable retrying)."""
    if retry is None or isinstance(retry, RetryPolicy):
        # A policy validated attempts >= 1 at construction.
        return retry if retry is not None and retry.attempts > 1 else None
    if isinstance(retry, bool) or not isinstance(retry, int):
        raise GraphRuntimeError(f"retry= takes a RetryPolicy or an int "
                                f"attempt count, not a {type(retry).__name__}")
    if retry < 1:
        raise ValueError(f"retry attempt count must be >= 1 (the first try "
                         f"counts), got {retry}; pass retry=None to disable "
                         f"retrying")
    return RetryPolicy(attempts=retry) if retry > 1 else None


#: Backend name -> how it executes the graph (one per registered backend).
MODELS: Dict[str, str] = {
    "cgsim": "cooperative single-process scheduler (§3.6-3.8)",
    "cgsim-mp": "sharded multi-process scheduler farm",
    "pysim": "serialization round trip -> cooperative scheduler",
    "x86sim": "preemptive thread per kernel (§5.2)",
}

_COOP = ("cgsim", "pysim")                  # the cgsim runtime family
_SCHED = _COOP + ("cgsim-mp",)              # every cooperative scheduler
_THREAD = _COOP + ("x86sim",)               # every single-process engine
_ALL = _SCHED + ("x86sim",)
_every = dict.fromkeys

OPTIONS: Dict[str, Option] = {
    "optimize": Option(
        _one_of("optimize level", OPTIMIZE_LEVELS), "plan optimization level",
        {"cgsim": honour("none"),
         "pysim": ignore("the unoptimized round trip is the point"),
         "x86sim": ignore("threads have no scheduler hops to elide"),
         "cgsim-mp": ignore("workers do not build optimize plans yet "
                            "(ROADMAP item 1a)")},
        wire=True),
    "capacity": Option(
        _positive_int("capacity"), "default queue depth",
        _every(_ALL, honour(DEFAULT_QUEUE_CAPACITY)), wire=True),
    "validate": Option(
        _flag("validate"), "per-element stream type checks",
        _every(_SCHED, honour(False))),
    "batch_io": Option(
        _positive_int("batch_io"),
        "longest global source/sink run (None: ring capacity)",
        _every(_SCHED, honour(None)), wire=True),
    "max_steps": Option(
        _positive_int("max_steps"), "livelock guard, scheduler resumes",
        _every(_COOP, honour(None)), wire=True),
    "strict": Option(
        _flag("strict"), "raise on a stall",
        {**_every(_COOP, honour(False)), "x86sim": honour(True)}),
    "timeout": Option(
        _seconds("timeout"), "per-wait stall bound, seconds",
        {"x86sim": honour(60.0)}, wire=True),
    "transport": Option(
        _transport, "stream-net carrier", _every(_COOP, honour(None))),
    "workers": Option(
        _positive_int("workers"), "worker processes",
        {"cgsim-mp": honour(2)}, wire=True),
    "ring_capacity": Option(
        _positive_int("ring_capacity"), "items per inter-worker ring",
        {"cgsim-mp": honour(DEFAULT_RING_CAPACITY)}),
    "ring_bytes": Option(
        _positive_int("ring_bytes"), "data bytes per inter-worker ring",
        {"cgsim-mp": honour(DEFAULT_RING_BYTES)}),
    "on_error": Option(
        _one_of("on_error", ("fail", "isolate", "poison")),
        "failure containment policy",
        {**_every(_THREAD, honour("fail")),
         "cgsim-mp": honour("fail", only=("fail", "isolate"))},
        wire=True),
    "faults": Option(
        FaultPlan.coerce, "fault-injection plan",
        {**_every(_THREAD, honour(None)),
         "cgsim-mp": reject(
             "cgsim-mp does not support fault-injection plans "
             "(containment of real worker failures still applies); run "
             "the fault plan on cgsim or x86sim")},
        wire=True),
    "observe": Option(
        make_tracer, "event tracing (alias trace=)",
        _every(_ALL, honour(None))),
    "watchdog": Option(
        coerce_watchdog, "no-progress window, seconds",
        {**_every(_SCHED, honour(None)),
         "x86sim": ignore("the per-wait timeout already bounds stalls")},
        wire=True),
    "checkpoint": Option(
        coerce_checkpoint, "run-state capture policy",
        {**_every(_SCHED, honour(None)),
         "x86sim": reject(
             "checkpoint= capture needs a cooperative backend "
             "(cgsim/pysim/cgsim-mp): x86sim's preemptive threads have "
             "no quiescent point to snapshot at; resume_from= still "
             "works on x86sim", error=CheckpointError)}),
    "profile": Option(
        _profile, "per-kernel timing; 'sample' samples",
        {**_every(_SCHED, honour(False)),
         "x86sim": reject(
             "profile='sample' needs a cooperative backend "
             "(cgsim/pysim/cgsim-mp); x86sim's preemptive threads have "
             "no single scheduler stack to sample", only=(False, True))},
        wire=True),
    "retry": Option(
        coerce_retry, "retry policy or attempt count",
        _every(_ALL, honour(None)), wire=True, run_level=True),
    "run_id": Option(
        str, "correlation id (minted when unset)", _every(_ALL, honour(""))),
}

@dataclass(frozen=True)
class RunSpec:
    """The validated options of one run on one backend (frozen).

    Reading an option gives what the caller set, else the backend's
    default; ``None`` where the backend ignores, rejects or lacks it.
    """

    backend: str
    values: Mapping[str, Any]
    #: Binding built the tracer (from ``True``, a size, a path), so
    #: whoever drives the run closes it.
    owns_tracer: bool = False

    def __getattr__(self, name: str) -> Any:
        if name in OPTIONS:
            return self.values.get(name)
        raise AttributeError(name)

    @property
    def profiler(self) -> Any:
        """The sampling profiler ``profile`` asked for, or ``None``."""
        p = self.values.get("profile")
        return None if p is None or isinstance(p, bool) else p

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy with some values swapped (no re-validation)."""
        owns = changes.pop("owns_tracer", self.owns_tracer)
        return RunSpec(self.backend,
                       MappingProxyType({**self.values, **changes}), owns)

    def to_json(self) -> Dict[str, Any]:
        """The set, JSON-safe options (no tracer, sampler, watchdog,
        plan or policy objects; the run id has its own field)."""
        return {k: v for k, v in self.values.items()
                if k != "run_id" and isinstance(v, (bool, int, float, str))}


def check_option(backend: str, name: str, value: Any) -> Any:
    """Bind one option for *backend* (engine entry points call this)."""
    option, cell = OPTIONS[name], OPTIONS[name].cells[backend]
    value = option.coerce(value)
    if cell.action == "rejected":
        if value is not None and value is not False \
                and value not in cell.only:
            raise cell.error(cell.note)
    elif cell.only and value not in cell.only:
        raise cell.error(f"{name}={value!r}; {backend} supports "
                         f"{' or '.join(map(repr, cell.only))}")
    return value


def bind_options(backend: str, options: Mapping[str, Any], *,
                 engine: bool = False) -> RunSpec:
    """Validate *options* (``None`` = not set) for a run on *backend*.
    Options it lacks are refused together before any is coerced, and
    so are run-level ones with ``engine=True`` (prepare, graph calls)."""
    given = {k: v for k, v in options.items() if v is not None}
    if "trace" in given:            # the alias of observe
        if "observe" in given:
            raise GraphRuntimeError("pass either observe= or trace= (they "
                                    "are aliases), not both")
        given["observe"] = given.pop("trace")
    unknown = sorted(k for k in given if k not in OPTIONS
                     or backend not in OPTIONS[k].cells
                     or (engine and OPTIONS[k].run_level))
    if unknown:
        raise GraphRuntimeError(
            f"{backend} backend got unknown options: {unknown}")
    values: Dict[str, Any] = {}
    for name, option in OPTIONS.items():
        cell = option.cells.get(backend)
        if cell is not None:
            value = check_option(backend, name, given[name]) \
                if name in given else cell.default
            if cell.action == "honoured":
                values[name] = value
    tracer = values.get("observe")
    spec = RunSpec(backend, MappingProxyType(values),
                   tracer is not None and tracer is not given.get("observe"))
    if spec.checkpoint is not None:
        spec.checkpoint.options = spec.to_json()
    return spec


def render_table(backends: Iterable[str]) -> str:
    """The table as ``list-backends`` prints it: one line per option,
    one column per backend, then every ignored/rejected cell's note."""
    backends = list(backends)

    def text(cell):
        if cell is None or cell.action != "honoured":
            return cell.action if cell is not None else "-"
        only = f" ({'|'.join(cell.only)})" if cell.only else ""
        return repr(cell.default) + only

    rows = [["option"] + backends + ["serve", "meaning"]] + [
        [n] + [text(o.cells.get(b)) for b in backends]
        + ["yes" if o.wire else "-", o.doc] for n, o in OPTIONS.items()]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    lines += ["", "  a value: honoured, with that default (and only the "
              "values in parentheses);", "  ignored: validated, then "
              "dropped; -: rejected as unknown; serve: settable in", "  a "
              "repro.serve submission.", "", "notes:"]
    for name, option in OPTIONS.items():
        for b in backends:
            cell = option.cells.get(b)
            if cell is not None and cell.note:
                kept = (f" (still takes {', '.join(map(repr, cell.only))})"
                        if cell.only else "")
                lines.append(f"  {b} {cell.action} {name}{kept}: "
                             f"{cell.note}")
    return "\n".join(lines)
