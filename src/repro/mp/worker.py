"""Per-process shard runtime of the ``cgsim-mp`` backend.

Each worker runs one placement shard on the ordinary cooperative cgsim
machinery — the same :class:`~repro.core.queues.BroadcastQueue`,
:class:`~repro.core.ports.KernelReadPort`/``KernelWritePort`` objects,
and :class:`~repro.core.scheduler.CooperativeScheduler` as the
single-process backend — plus two *pump* loops that bridge the shard
boundary over :class:`~repro.mp.shm_ring.ShmRing` transports:

* the **import pump** moves batches from each inbound ring into the
  local queue of the corresponding net (``try_get_many`` →
  ``try_put_many`` with a carry buffer for the part the queue refused),
  waking parked local consumers through the queue's scheduler binding;
* the **export pump** drains a dedicated *export cursor* of each net
  this worker produces and replicates the batch into one outbound ring
  per remote consumer worker (broadcast fan-out happens here — the
  rings themselves are SPSC).

The worker alternates ``sched.run()`` (re-entrant: it drains the ready
deque and returns when every task is parked) with one pump pass, and
terminates when its sources are exhausted, every inbound ring is EOF
and drained, every export is flushed, and no task is runnable.  It then
marks its outbound rings EOF — sound without any distributed protocol
because placement guarantees the worker quotient graph is acyclic and
ordered by worker id, so end-of-stream cascades upward from worker 0.

A worker that stops making progress while nothing external can unblock
it reports a structured stall diagnosis (the same
``describe_blockage`` text as single-process runs, plus ring fill
levels); a worker whose kernel raises reports a failure message.

Results travel back on two channels.  Every sink run that
:func:`~repro.mp.codec.pack_layout` can pack — numpy numeric scalars
(every float32/int32 stream) and window blocks of one dtype and shape
(every IIR or Farrow window stream) — is written with ``pwritev`` into
the worker's hand-back file: an anonymous in-memory file the manager
created before the fork (``WorkerSpec.sink_fd``), so it has no name to
leak on any exit path.  The blocks go in as they are, never stacked
first.  Everything else — the ``(offset, dtype, shape)`` of each packed
sink, pass-through sink runs, RTP latch values, scheduler statistics
and observe events — travels in one small pickled message over a pipe.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.ports import bind_kernel_ports, next_consumer
from ..core.queues import BroadcastQueue, LatchQueue
from ..core.scheduler import CooperativeScheduler, TaskState
from ..core.sources_sinks import make_sink, make_source, preset_rtp
from ..core.transport import traced
from ..errors import GraphRuntimeError
from .codec import write_packed

if TYPE_CHECKING:
    from ..exec.spec import RunSpec

__all__ = ["WorkerSpec", "ShardRuntime", "worker_main", "PUMP_BATCH"]

#: Elements moved per pump step and ring transfer record.
PUMP_BATCH = 256
#: Sleep between polls when blocked on another worker's progress.
_POLL_SLEEP = 0.0005


@dataclass
class WorkerSpec:
    """Everything one worker needs, captured before fork (the child
    inherits graph objects, input containers, ring mappings and its
    hand-back file descriptor)."""

    wid: int
    placement: Any                                  # mp.placement.Placement
    io: Tuple[Any, ...]                             # caller's sources + sinks
    rings: Dict[Tuple[int, int, int], Any]
    run: "RunSpec"                                  # the bound run options
    sink_fd: int                                    # the hand-back file


class _Import:
    """One inbound ring feeding one local queue, with a carry buffer for
    elements the queue refused (retried on the next pump pass)."""

    __slots__ = ("ring", "queue", "pending", "pos")

    def __init__(self, ring, queue):
        self.ring = ring
        self.queue = queue
        self.pending: List[Any] = []
        self.pos = 0

    @property
    def idle(self) -> bool:
        return self.ring.drained and not self.pending


class _ExportRing:
    """One outbound ring of an export, with its own carry position."""

    __slots__ = ("ring", "dst", "pending", "pos")

    def __init__(self, ring, dst: int):
        self.ring = ring
        self.dst = dst
        self.pending: List[Any] = []
        self.pos = 0


class _Export:
    """The export cursor of one locally-produced net and the outbound
    rings its elements are replicated into."""

    __slots__ = ("queue", "cidx", "rings")

    def __init__(self, queue, cidx: int, rings: List[_ExportRing]):
        self.queue = queue
        self.cidx = cidx
        self.rings = rings

    @property
    def flushed(self) -> bool:
        return self.queue.size_for(self.cidx) == 0 and not any(
            rp.pending for rp in self.rings
        )


class ShardRuntime:
    """One worker's slice of the graph, wired onto local cgsim queues."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        pl = spec.placement
        g = pl.graph
        self.graph = g
        self.wid = spec.wid
        local = set(pl.shards[spec.wid])

        run = spec.run
        self.tracer = None
        if run.observe is not None:
            from ..observe import RingSink, Tracer

            # Workers retain events unbounded and ship them whole; the
            # manager's caller-facing sink applies any bounding policy.
            self.tracer = Tracer(RingSink(maxlen=None),
                                 queue_events=run.observe.queue_events,
                                 metrics=False,
                                 run_id=run.run_id,
                                 labels=run.observe.labels)

        self.queues: Dict[int, Any] = {}
        self._alloc: Dict[int, int] = {}
        self.imports: List[_Import] = []
        self.exports: List[_Export] = []
        self._sources: List[Tuple[int, Any]] = []      # (io_index, coro)
        self._sinks: List[Tuple[int, Any, List[Any]]] = []
        self._rtp_out: List[Tuple[int, LatchQueue]] = []
        self._input_net_ids: List[int] = []            # source-homed nets
        sink_nets: List[Tuple[Any, Any, Any]] = []     # (gio, queue, net)
        export_nets: List[Tuple[Any, Any, List[Tuple[int, Any]]]] = []

        # Local queue per net with any local endpoint (§3.6 step 1,
        # restricted to the shard).
        for net in g.nets:
            local_cons = [ep for ep in net.consumers
                          if ep.instance_idx in local]
            local_prods = [ep for ep in net.producers
                           if ep.instance_idx in local]

            if net.settings.runtime_parameter:
                rtp_outs = [gio for gio in g.outputs
                            if gio.net_id == net.net_id
                            and pl.sink_home(gio.io_index) == spec.wid]
                if not (local_cons or local_prods or rtp_outs):
                    continue
                q: Any = LatchQueue(n_consumers=max(len(local_cons), 1),
                                    name=net.name)
                for gio in g.inputs:
                    if gio.net_id == net.net_id:
                        preset_rtp(q, net.dtype, spec.io[gio.io_index],
                                   run.validate)
                q = traced(q, self.tracer)
                self.queues[net.net_id] = q
                self._alloc[net.net_id] = 0
                for gio in rtp_outs:
                    self._rtp_out.append((gio.io_index, q))
                continue

            pw = pl.net_producer_worker(net.net_id)
            inbound = None
            if pw is not None and pw != spec.wid:
                inbound = spec.rings.get((net.net_id, pw, spec.wid))
            outbound: List[Tuple[int, Any]] = []
            if pw == spec.wid:
                for cw in sorted(pl.net_consumer_workers(net.net_id)):
                    if cw != spec.wid:
                        outbound.append(
                            (cw, spec.rings[(net.net_id, spec.wid, cw)])
                        )
            sinks_here = [gio for gio in g.outputs
                          if gio.net_id == net.net_id
                          and pl.sink_home(gio.io_index) == spec.wid]
            sources_here = [gio for gio in g.inputs
                            if gio.net_id == net.net_id
                            and pl.source_home(gio.io_index) == spec.wid]
            if not (local_cons or local_prods or inbound or outbound
                    or sinks_here or sources_here):
                continue

            n_consumers = (len(local_cons) + len(sinks_here)
                           + (1 if outbound else 0))
            # n_consumers may legitimately be 0 (an input net nothing
            # consumes); a phantom cursor would count as undrained data.
            q = traced(BroadcastQueue(capacity=net.queue_depth(run.capacity),
                                      n_consumers=n_consumers, name=net.name),
                       self.tracer)
            self.queues[net.net_id] = q
            self._alloc[net.net_id] = 0
            if inbound is not None:
                q.producer_names.append(f"worker[{pw}]")
                self.imports.append(_Import(inbound, q))
            for gio in sources_here:
                container = spec.io[gio.io_index]
                coro = make_source(q, net.dtype, container, run.validate,
                                   batch=run.batch_io)
                q.producer_names.append(f"source[{gio.io_index}]")
                self._sources.append((gio.io_index, coro))
                self._input_net_ids.append(net.net_id)
            for gio in sinks_here:
                sink_nets.append((gio, q, net))
            if outbound:
                export_nets.append((net.net_id, q, outbound))

        # Local kernels, in shard order (§3.6 step 2, restricted).
        self._kernel_coros: List[Tuple[str, Any]] = []
        for idx in pl.shards[spec.wid]:
            inst = g.kernels[idx]
            name = inst.instance_name
            ports, _, _ = bind_kernel_ports(
                name, inst.kernel, inst.port_nets, self.queues,
                self._alloc, run.validate,
            )
            self._kernel_coros.append((name, inst.kernel.instantiate(ports)))

        # Sinks collect locally into plain lists; the manager copies
        # them into the caller's containers in net FIFO order, so the
        # payload is bit-identical to a single-process run.
        for gio, q, net in sink_nets:
            cidx = next_consumer(self._alloc, net.net_id)
            store: List[Any] = []
            coro, _cursor = make_sink(q, cidx, net.dtype, store,
                                      batch=run.batch_io)
            q.consumer_names.append(f"sink[{gio.io_index}]")
            self._sinks.append((gio.io_index, coro, store))

        # Export cursors are allocated last so kernel/sink consumer
        # indices match the single-process layout.
        for net_id, q, outbound in export_nets:
            cidx = next_consumer(self._alloc, net_id)
            q.consumer_names.append(f"export[w{spec.wid}]")
            rings = []
            for cw, ring in outbound:
                ring.producer_names.append(f"w{spec.wid}:{q.name}")
                rings.append(_ExportRing(ring, cw))
            self.exports.append(_Export(q, cidx, rings))

    # -- pumps --------------------------------------------------------------

    def _pump_imports(self) -> int:
        """Ring → local queue; returns elements moved."""
        moved = 0
        for imp in self.imports:
            q = imp.queue
            if imp.ring.poisoned and not q.poisoned:
                q.poison(imp.ring.poison_origin)
            while True:
                if imp.pending:
                    n = q.try_put_many(imp.pending, imp.pos)
                    if n == 0:
                        break
                    imp.pos += n
                    moved += n
                    if imp.pos < len(imp.pending):
                        break
                    imp.pending = []
                    imp.pos = 0
                batch = imp.ring.try_get_many(0, PUMP_BATCH)
                if not batch:
                    break
                imp.pending = batch
                imp.pos = 0
        return moved

    def _pump_exports(self) -> int:
        """Export cursor → outbound rings (replicated); elements moved."""
        moved = 0
        for exp in self.exports:
            while True:
                progressed = False
                for rp in exp.rings:
                    if not rp.pending:
                        continue
                    n = rp.ring.try_put_many(rp.pending, rp.pos)
                    if n:
                        rp.pos += n
                        moved += n
                        progressed = True
                        if rp.pos >= len(rp.pending):
                            rp.pending = []
                            rp.pos = 0
                if not any(rp.pending for rp in exp.rings):
                    batch = exp.queue.try_get_many(exp.cidx, PUMP_BATCH)
                    if batch:
                        moved += len(batch)
                        for rp in exp.rings:
                            rp.pending = batch
                            rp.pos = 0
                        continue
                if not progressed:
                    break
        return moved

    # -- termination --------------------------------------------------------

    def _status(self, sched: CooperativeScheduler, source_tasks) -> str:
        """``running`` | ``done`` | ``stalled`` — called only when the
        ready deque is empty and the last pump pass moved nothing."""
        sources_done = all(
            t.state is TaskState.FINISHED for t in source_tasks
        )
        if not sources_done:
            # A source parked on a full queue with nothing else movable
            # is either back-pressured by a remote consumer (running) or
            # part of a local cycle; the stall timeout arbitrates.
            return "running"
        if not all(imp.idle for imp in self.imports):
            return "running"   # upstream may still deliver (or EOF)
        if not all(exp.flushed for exp in self.exports):
            return "running"   # downstream must drain the rings first
        blocked_writers = [
            t.name for t in sched.tasks
            if t.state is TaskState.BLOCKED_WRITE and t.kind == "kernel"
        ]
        undrained = sum(
            q.size_for(c)
            for q in self.queues.values()
            for c in range(q.n_consumers)
        )
        if blocked_writers or undrained:
            return "stalled"   # nothing external can unblock this shard
        return "done"

    def _stall_diagnosis(self, sched: CooperativeScheduler) -> str:
        lines = [
            f"worker[{self.wid}] stalled:",
            sched.describe_blockage(),
        ]
        for imp in self.imports:
            r = imp.ring
            lines.append(
                f"  inbound {r.name}: fill {r.size_for(0)}"
                f"{' EOF' if r.eof else ''} carry {len(imp.pending) - imp.pos}"
            )
        for exp in self.exports:
            for rp in exp.rings:
                lines.append(
                    f"  outbound {rp.ring.name}: fill {rp.ring.size_for(0)}"
                    f"/{rp.ring.capacity} carry {len(rp.pending) - rp.pos}"
                )
        return "\n".join(lines)

    # -- the worker loop ----------------------------------------------------

    def run(self) -> Dict[str, Any]:
        spec = self.spec
        stall_timeout = spec.run.stall_timeout
        t0 = perf_counter()
        # A sampler (a truthy profile) attributes via sched._current,
        # which the scheduler only publishes in measure mode.
        sched = CooperativeScheduler(profile=bool(spec.run.profile),
                                     tracer=self.tracer)
        for q in self.queues.values():
            q.bind_scheduler(sched)

        for name, coro in self._kernel_coros:
            sched.spawn(name, coro, kind="kernel")
        source_tasks = [
            sched.spawn(f"source[{i}]", coro, kind="source")
            for i, coro in self._sources
        ]
        for i, coro, _store in self._sinks:
            sched.spawn(f"sink[{i}]", coro, kind="sink")

        profiler = None
        if spec.run.profiler is not None:
            from ..observe.profile import SamplingProfiler, scheduler_label_fn

            profiler = SamplingProfiler(interval=spec.run.profiler.interval)
            profiler.start(scheduler_label_fn(sched))

        total_switches = 0
        last_stats = None
        failure: Optional[Dict[str, Any]] = None
        stall = ""
        last_progress = perf_counter()
        try:
            while True:
                stats = sched.run()
                total_switches += stats.context_switches
                last_stats = stats
                moved = self._pump_imports() + self._pump_exports()
                if stats.context_switches or moved:
                    last_progress = perf_counter()
                if sched.ready or moved:
                    continue
                status = self._status(sched, source_tasks)
                if status == "done":
                    break
                if status == "stalled":
                    stall = self._stall_diagnosis(sched)
                    break
                if perf_counter() - last_progress > stall_timeout:
                    stall = (
                        f"worker[{self.wid}] made no progress for "
                        f"{stall_timeout:.1f}s (waiting on peers):\n"
                        + self._stall_diagnosis(sched)
                    )
                    break
                time.sleep(_POLL_SLEEP)
        except GraphRuntimeError as exc:
            failed = [t for t in sched.tasks
                      if t.state is TaskState.FAILED and t.error is not None]
            t_fail = failed[0] if failed else None
            failure = {
                "task": t_fail.name if t_fail else f"worker[{spec.wid}]",
                "error_type": type(t_fail.error).__name__ if t_fail
                else type(exc).__name__,
                "error_msg": str(t_fail.error) if t_fail else str(exc),
                "traceback": traceback.format_exc(),
            }
            try:
                # Elements produced before the failure are valid: flush
                # them so surviving consumers deliver the exact prefix
                # (the manager EOFs this worker's rings afterwards).
                self._pump_exports()
            except Exception:
                pass
        finally:
            if profiler is not None:
                profiler.stop()
            if failure is None and not stall:
                # Clean end: signal end-of-stream downward.  Failing or
                # stalled workers leave their rings open — the manager
                # tears the farm down and reports containment instead.
                for exp in self.exports:
                    for rp in exp.rings:
                        rp.ring.mark_eof()
            sched.close()

        wall = perf_counter() - t0
        items_in = sum(self.queues[nid].total_puts
                       for nid in self._input_net_ids)
        stores = {i: store for i, _coro, store in self._sinks}
        packed, sinks_payload = write_packed(spec.sink_fd, stores)
        # Stamp worker id + emission sequence (schema v2) so the manager
        # can merge the per-worker streams into one deterministic total
        # order even when coarse clocks collide across processes.
        events_payload: List[Dict[str, Any]] = []
        if self.tracer is not None:
            for seq, ev in enumerate(self.tracer.events):
                if ev.worker < 0:
                    ev.worker = spec.wid
                if ev.seq < 0:
                    ev.seq = seq
                events_payload.append(ev.to_dict())
        msg: Dict[str, Any] = {
            "kind": "failure" if failure is not None
            else "stall" if stall else "result",
            "wid": spec.wid,
            "wall_time": wall,
            "context_switches": total_switches,
            "items_in": items_in,
            "items_out": sum(len(s) for s in stores.values()),
            "sinks": sinks_payload,
            "packed": packed,
            "rtp": {i: latch.last_value for i, latch in self._rtp_out},
            "task_states": dict(last_stats.task_states) if last_stats else {},
            "task_resumes": dict(last_stats.task_resumes) if last_stats
            else {},
            "task_cpu": dict(last_stats.task_cpu_time) if last_stats else {},
            "task_blocked": dict(last_stats.task_blocked_time)
            if last_stats else {},
            "stall_diagnosis": stall,
            "failure": failure,
            "events": events_payload,
            "profile": profiler.report().to_dict()
            if profiler is not None else None,
        }
        return msg


def worker_main(spec: WorkerSpec, conn) -> None:
    """Process entry point: build the shard runtime, run it, ship the
    result message; never let an exception escape without a message."""
    try:
        msg = ShardRuntime(spec).run()
    except BaseException as exc:  # constructor/teardown failures
        msg = {
            "kind": "error",
            "wid": spec.wid,
            "error_type": type(exc).__name__,
            "error_msg": str(exc),
            "traceback": traceback.format_exc(),
        }
    try:
        conn.send(msg)
        conn.close()
    except Exception:  # manager already gone; nothing left to report to
        pass
