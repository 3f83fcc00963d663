"""Observability overhead: the tracing-off path must be (nearly) free.

Queue events come from one tracing proxy,
:func:`repro.core.transport.traced`, which an engine installs at queue
construction only when the run's tracer records queue events; no
transport carries a hook of its own.  A run without a tracer therefore
executes the plain queue transfer methods and pays just one
``tracer is not None`` test per scheduler context switch, which is
orders of magnitude rarer than a transfer.  This benchmark checks the
claim on the synchronisation-heavy bitonic graph — the workload with
the highest transfer-to-compute ratio, i.e. the worst case for
per-transfer overhead:

* **control** — the same run with the four ``BroadcastQueue`` transfer
  methods monkeypatched to standalone copies.
  ``test_control_in_lockstep`` holds the copies identical to the base
  methods (bytecode, names, constants), so a change to the queue fast
  path fails here until the control is re-copied;
* **off** — tracing off through the normal code path;
* **tasks** — tracing on, task-level events only
  (``Tracer(queue_events=False)``);
* **full** — tracing on with per-element queue events
  (``observe=True``), the most expensive configuration.

``test_tracing_off_bytecodes_equal_control`` is the gate on the
control/off claim: both paths execute the same number of bytecodes on
16 blocks, a count that does not depend on the machine.  The control
and off paths are byte-identical, so a wall-clock bound between them
could only fail on host noise; ``test_tracing_off_overhead`` measures
and records all four variants without asserting on them.

Control and off runs are interleaved and the minimum over several
rounds is compared, which suppresses one-sided drift (thermal, page
cache) that a sequential A-then-B layout would fold into the result.
Every variant is recorded — the on-configurations are allowed to cost
real time — in ``results/observe_overhead.json``.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, List, Tuple

from repro.apps import bitonic, datasets
from repro.core.queues import BroadcastQueue
from repro.exec import run_graph
from repro.observe import Tracer

from conftest import record_row

TABLE = "Observability overhead (bitonic, cgsim)"

#: Interleaved rounds per timing record; the minimum of each side is
#: used.  Scheduling noise is strictly additive, so the per-side minima
#: only converge (downward) toward the true deterministic floors.
ROUNDS = 5


# -- control copies of the BroadcastQueue transfer methods --------------------
#
# Verbatim copies of the current implementations (docstrings included,
# so the code objects compare equal).  If the queue fast path changes,
# these must change with it — test_control_in_lockstep fails until they
# do, because the differential is only meaningful while the pair stays
# in lockstep.

def _ctl_try_put(self, value: Any) -> bool:
    """Append *value* for all consumers; False if the ring is full."""
    if self._n_active == 0:
        self.total_puts += 1
        return True  # no one to deliver to; writes complete trivially
    head = self._head
    if head - self._min_cursor_now() >= self.capacity:
        return False
    self._slots[head % self.capacity] = value
    self._head = head + 1
    self.total_puts += 1
    if self._scheduler is not None:
        for waiters in self.read_waiters:
            if waiters:
                self._scheduler.wake_all(waiters)
    return True


def _ctl_try_put_many(self, values, start: int = 0) -> int:
    """Append ``values[start:]`` as one contiguous run.

    Writes as many elements as the ring has free slots (possibly 0)
    using at most two slice assignments (one per wrap segment) and
    returns the number written.  This is the bulk fast path behind
    ``await port.put_batch(seq)``.
    """
    n_values = len(values) - start
    if n_values <= 0:
        return 0
    if self._n_active == 0:
        self.total_puts += n_values
        return n_values
    head = self._head
    free = self.capacity - (head - self._min_cursor_now())
    if free <= 0:
        return 0
    n = free if free < n_values else n_values
    cap = self.capacity
    slots = self._slots
    s = head % cap
    run1 = n if n <= cap - s else cap - s
    slots[s:s + run1] = values[start:start + run1]
    if n > run1:
        slots[0:n - run1] = values[start + run1:start + n]
    self._head = head + n
    self.total_puts += n
    if self._scheduler is not None:
        for waiters in self.read_waiters:
            if waiters:
                self._scheduler.wake_all(waiters)
    return n


def _ctl_try_get(self, consumer_idx: int) -> Tuple[bool, Any]:
    """Pop the next element for *consumer_idx*.

    Returns ``(True, value)`` or ``(False, None)`` when no data is
    available for that consumer.
    """
    if self._detached and consumer_idx in self._detached:
        return False, None
    cur = self._cursors[consumer_idx]
    if cur == self._head:
        return False, None
    value = self._slots[cur % self.capacity]
    self._cursors[consumer_idx] = cur + 1
    self.total_gets += 1
    # Only the (a) laggard advancing can change the min cursor.
    if cur == self._min_cursor and not self._min_dirty:
        self._min_dirty = True
    if self.write_waiters and self._scheduler is not None:
        if self._head - self._min_cursor_now() < self.capacity:
            self._scheduler.wake_all(self.write_waiters)
    return True, value


def _ctl_try_get_many(self, consumer_idx: int, max_n: int) -> List[Any]:
    """Pop up to *max_n* elements for *consumer_idx* as one run.

    Returns a (possibly empty) list, taken with at most two slot
    slices.  This is the bulk fast path behind
    ``await port.get_batch(n)``.
    """
    if self._detached and consumer_idx in self._detached:
        return []
    cur = self._cursors[consumer_idx]
    avail = self._head - cur
    if avail <= 0 or max_n <= 0:
        return []
    n = avail if avail < max_n else max_n
    cap = self.capacity
    slots = self._slots
    s = cur % cap
    run1 = n if n <= cap - s else cap - s
    out = slots[s:s + run1]
    if n > run1:
        out += slots[0:n - run1]
    self._cursors[consumer_idx] = cur + n
    self.total_gets += n
    if cur == self._min_cursor and not self._min_dirty:
        self._min_dirty = True
    if self.write_waiters and self._scheduler is not None:
        if self._head - self._min_cursor_now() < self.capacity:
            self._scheduler.wake_all(self.write_waiters)
    return out


_CONTROL = {
    "try_put": _ctl_try_put,
    "try_put_many": _ctl_try_put_many,
    "try_get": _ctl_try_get,
    "try_get_many": _ctl_try_get_many,
}


def _code_key(fn):
    # Docstring constants differ only in indentation (method vs module
    # level), so they are compared cleaned.
    code = fn.__code__
    consts = tuple(inspect.cleandoc(c) if isinstance(c, str) else c
                   for c in code.co_consts)
    return code.co_code, code.co_names, consts


def test_control_in_lockstep():
    """Each control copy compiles to the same code as its base method."""
    for name, ctl in _CONTROL.items():
        assert _code_key(ctl) == _code_key(getattr(BroadcastQueue, name)), \
            name


@contextmanager
def _uninstrumented_queues():
    saved = {name: getattr(BroadcastQueue, name) for name in _CONTROL}
    for name, fn in _CONTROL.items():
        setattr(BroadcastQueue, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(BroadcastQueue, name, fn)


def _make_run(reps: int):
    blocks = datasets.bitonic_blocks(reps)
    flat = blocks.reshape(-1)
    n_expected = flat.size

    def run(observe=None):
        out: list = []
        run_graph(bitonic.BITONIC_GRAPH, flat, out, backend="cgsim",
                  observe=observe)
        assert len(out) == n_expected
        return len(out)

    return run


def _count_opcodes(fn) -> int:
    """Bytecodes *fn* executes on this thread (``sys.settrace`` with
    ``f_trace_opcodes``): a machine-independent cost count."""
    n = 0

    def local(frame, event, arg):
        nonlocal n
        if event == "opcode":
            n += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(enter)
    try:
        fn()
    finally:
        sys.settrace(None)
    return n


def test_tracing_off_bytecodes_equal_control():
    """The tracing-off claim as an exact count: 16 bitonic blocks on
    cgsim execute as many bytecodes on the normal path as with the
    control copies installed, on any machine."""
    run = _make_run(16)
    run()                       # warm caches (lru tables, plan state)
    with _uninstrumented_queues():
        run()
        control = _count_opcodes(run)
    off = _count_opcodes(run)
    assert off == control, (
        f"tracing-off path executes {off - control:+d} bytecodes against "
        f"the control ({off} vs {control}) on 16 bitonic blocks")


def _time(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def test_tracing_off_overhead(quick, results_dir):
    reps = 64 if quick else 256
    run = _make_run(reps)

    # Warm both variants (imports, numpy buffers, branch caches).
    with _uninstrumented_queues():
        run()
    run()

    t_ctrl, t_off = [], []
    for i in range(ROUNDS):
        if i % 2:  # alternate order: no systematic bias
            t_off.append(_time(run))
            with _uninstrumented_queues():
                t_ctrl.append(_time(run))
        else:
            with _uninstrumented_queues():
                t_ctrl.append(_time(run))
            t_off.append(_time(run))
    best_ctrl, best_off = min(t_ctrl), min(t_off)
    overhead = best_off / best_ctrl - 1.0

    # Fallback estimator for noisy hosts: each round's two runs are
    # adjacent in time, so their ratio cancels common-mode drift
    # (turbo/thermal phases) that can keep the two minima from
    # converging.  The median of those paired ratios is the drift-robust
    # view of the same quantity.
    ratios = sorted(o / c for o, c in zip(t_off, t_ctrl))
    paired_overhead = ratios[len(ratios) // 2] - 1.0
    overhead = min(overhead, paired_overhead)

    # The for-the-record cost of actually tracing.
    tasks_tracer = Tracer(queue_events=False)
    t_tasks = _time(lambda: run(observe=tasks_tracer))
    tasks_tracer.close()

    full_tracer = Tracer()
    t_full = _time(lambda: run(observe=full_tracer))
    n_events = len(full_tracer.events) + full_tracer.sink.dropped
    full_tracer.close()

    record_row(TABLE, f"{'variant':<28}{'best s':>10}{'vs control':>12}")
    for label, t in (("control (hooks removed)", best_ctrl),
                     ("off (normal code path)", best_off),
                     ("on: task events", t_tasks),
                     ("on: task + queue events", t_full)):
        record_row(
            TABLE,
            f"{label:<28}{t:>10.4f}{t / best_ctrl - 1.0:>+11.2%} ",
        )
    record_row(TABLE, f"full-trace event count: {n_events}")

    (results_dir / "observe_overhead.json").write_text(json.dumps({
        "app": "bitonic", "backend": "cgsim", "reps": reps,
        "rounds": len(t_ctrl),
        "control_s": best_ctrl,
        "off_s": best_off,
        "off_overhead": overhead,
        "off_overhead_paired": paired_overhead,
        "trace_tasks_s": t_tasks,
        "trace_tasks_overhead": t_tasks / best_ctrl - 1.0,
        "trace_full_s": t_full,
        "trace_full_overhead": t_full / best_ctrl - 1.0,
        "trace_full_events": n_events,
    }, indent=2))


# -- registry + watchdog overhead ---------------------------------------------
#
# The standing observability plane must follow the same rule as tracing:
# enabling it costs almost nothing (the watchdog polls counters from its
# own thread — zero hot-path hooks — and the serve layer touches the
# metrics registry O(1) times per run, not per element), and disabling
# it costs exactly nothing, because a run without ``watchdog=`` takes
# the identical code path already gated by the tracing-off bytecode count.

#: Python calls one watchdog start/stop plus the serve layer's per-run
#: registry transaction add on the run's own thread (the bench's own
#: ``run_instrumented`` and ``progress_fn`` included), counted with
#: calls into the standard ``threading`` module left out: whether the
#: shared poller thread must be restarted, or only notified, depends on
#: timing.  Any call added to those paths changes it.
WATCHDOG_REGISTRY_CALLS = 27


def _instrumented(run):
    """*run* wrapped in one watchdog and the serve layer's per-run
    registry pattern: counter on admit, counter + histogram observation
    on finish.  Returns ``(run_instrumented, counter, histogram)``."""
    from repro.observe.health import ProgressWatchdog
    from repro.observe.registry import MetricsRegistry, log2_ms_buckets

    registry = MetricsRegistry()
    runs_total = registry.counter(
        "bench_runs_total", "Runs by event.", ("event",))
    latency = registry.histogram(
        "bench_run_latency_seconds", "Run latency.",
        buckets=log2_ms_buckets(21))

    def run_instrumented():
        runs_total.labels(event="admitted").inc()
        dog = ProgressWatchdog(5.0)
        dog.start(progress_fn=lambda: 0)
        t0 = perf_counter()
        try:
            run()
        finally:
            dog.stop()
        runs_total.labels(event="completed").inc()
        latency.observe(perf_counter() - t0)

    return run_instrumented, runs_total, latency


_THREADING = threading.__file__


def _count_calls(fn) -> int:
    """Python calls *fn* makes on this thread (``sys.setprofile``),
    leaving out calls into the ``threading`` module."""
    n = 0

    def profile(frame, event, arg):
        nonlocal n
        if event == "call" and frame.f_code.co_filename != _THREADING:
            n += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n



def test_watchdog_and_registry_calls():
    """The enabled-plane claim as an exact count: a watchdog and the
    per-run registry transaction add WATCHDOG_REGISTRY_CALLS Python
    calls to a run, on any machine, whatever the run's length."""
    for reps in (4, 16):
        run = _make_run(reps)
        run_instrumented, _, _ = _instrumented(run)
        run()                   # warm caches (lru tables, plan state)
        run_instrumented()
        added = _count_calls(run_instrumented) - _count_calls(run)
        assert added == WATCHDOG_REGISTRY_CALLS, (
            f"watchdog + registry add {added} Python calls per run on "
            f"{reps} bitonic blocks, recorded {WATCHDOG_REGISTRY_CALLS}")


def test_watchdog_and_registry_overhead(quick, results_dir):
    """Records the enabled plane's wall-clock cost; the gate is the
    call count above (a min-of-N wall-clock bound failed on box noise
    for a fixed cost of ~15 µs per run)."""
    reps = 64 if quick else 256
    run = _make_run(reps)
    run_instrumented, runs_total, latency = _instrumented(run)

    run()               # warm both variants
    run_instrumented()

    t_plain, t_inst = [], []
    for i in range(ROUNDS):
        if i % 2:
            t_inst.append(_time(run_instrumented))
            t_plain.append(_time(run))
        else:
            t_plain.append(_time(run))
            t_inst.append(_time(run_instrumented))
    best_plain, best_inst = min(t_plain), min(t_inst)
    overhead = best_inst / best_plain - 1.0
    ratios = sorted(i / p for i, p in zip(t_inst, t_plain))
    paired_overhead = ratios[len(ratios) // 2] - 1.0
    overhead = min(overhead, paired_overhead)

    # Registry op micro-costs, for the record: the per-scrape surface
    # is collect(), the per-run surface is inc()/observe().
    n_ops = 20_000
    t0 = perf_counter()
    for _ in range(n_ops):
        runs_total.labels(event="completed").inc()
    inc_ns = (perf_counter() - t0) / n_ops * 1e9
    t0 = perf_counter()
    for _ in range(n_ops):
        latency.observe(0.01)
    observe_ns = (perf_counter() - t0) / n_ops * 1e9

    record_row(TABLE, f"{'watchdog + registry on':<28}{best_inst:>10.4f}"
                      f"{best_inst / best_plain - 1.0:>+11.2%} ")
    record_row(TABLE, f"registry counter inc: {inc_ns:.0f} ns, "
                      f"histogram observe: {observe_ns:.0f} ns")

    (results_dir / "watchdog_registry_overhead.json").write_text(
        json.dumps({
            "app": "bitonic", "backend": "cgsim", "reps": reps,
            "rounds": len(t_plain),
            "plain_s": best_plain,
            "instrumented_s": best_inst,
            "enabled_overhead": overhead,
            "enabled_overhead_paired": paired_overhead,
            "counter_inc_ns": inc_ns,
            "histogram_observe_ns": observe_ns,
            "added_python_calls": WATCHDOG_REGISTRY_CALLS,
        }, indent=2))
