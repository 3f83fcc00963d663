"""The run manager of the ``cgsim-mp`` backend (FireSim's manager side).

:func:`run_sharded` is the whole lifecycle:

0. **check** — the positional I/O is vetted by the shared binder
   (:func:`~repro.core.sources_sinks.check_io`) before anything forks,
   so a bad sink container fails as fast as on cgsim;
1. **place** — :func:`~repro.mp.placement.place_graph` cuts the graph
   into per-worker shards with an acyclic, id-ordered worker quotient
   (stdlib graph code, about a millisecond; nothing heavy is imported
   on the run path);
2. **allocate** — one :class:`~repro.mp.shm_ring.ShmRing` per
   inter-worker net crossing, created *before* fork so every child
   inherits the mappings and locks;
3. **fork** — one OS process per shard
   (:func:`~repro.mp.worker.worker_main`), each handed an anonymous
   in-memory file (``os.memfd_create``, created before the fork) for
   its packed sink runs and a pipe for everything else;
4. **monitor** — the farm's probes go live on the run core's
   :class:`~repro.exec.api.RunLifecycle` (so its watchdog thread starts
   only after the last fork), then poll pipes and exit codes; a worker
   that dies without reporting (``os._exit``, a segfault, the OOM
   killer) triggers containment: the remaining farm is torn down and
   the run returns a
   :class:`~repro.faults.FailureReport` whose cancelled cone names
   every kernel instance downstream of the lost shard.  The report is
   built by :func:`repro.faults.cone.failure_report`, the same rules
   every backend and trace replay use, with the lost shard and the
   sinks it homed added to the dead set;
5. **merge** — sink payloads (a packed run of numpy scalars or window
   blocks arrives as one array viewing the worker's hand-back file,
   mapped copy-on-write by :func:`~repro.mp.codec.read_packed`; the
   manager closes the file as soon as it is mapped) land in the
   caller's containers in net FIFO order (bit-identical
   to a single-process run; one bulk ``store_many`` per sink, through
   the shared :func:`~repro.core.sources_sinks.sink_store`; a store
   error, such as a sink array too small, is contained under
   ``isolate`` as cgsim contains its sink task's error), RTP latch
   values fill the caller's
   :class:`~repro.core.sources_sinks.RuntimeParam` boxes, per-worker
   statistics are summed, and observe events from all workers are
   sorted by timestamp and fed through
   :meth:`~repro.observe.events.Tracer.ingest` into the caller-facing
   tracer — one totally-ordered trace with per-kernel tracks.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Tuple

from ..core.result import RunResult, kernel_fraction
from ..core.sources_sinks import RuntimeParam, check_io, sink_store
from ..errors import GraphRuntimeError
from ..faults.cone import dependent_cone, failure_report
from ..faults.report import FailureReport, TaskFailure
from .codec import read_packed
from .placement import Placement, place_graph
from .shm_ring import ShmRing
from .worker import WorkerSpec, worker_main

if TYPE_CHECKING:
    from ..exec.api import RunLifecycle
    from ..exec.spec import RunSpec

__all__ = ["ShardRun", "WorkerCrashError", "RemoteKernelError",
           "run_sharded"]

#: Items buffered per inter-worker ring (transport capacity; the byte
#: region is bounded separately by ``ring_bytes``).
DEFAULT_RING_CAPACITY = 4096

#: Seconds granted to surviving workers to report after a peer died.
_REAP_GRACE = 2.0


class WorkerCrashError(GraphRuntimeError):
    """A worker process died without reporting a result."""

    def __init__(self, wid: int, exitcode: Optional[int], shard_names):
        self.wid = wid
        self.exitcode = exitcode
        self.shard_names = tuple(shard_names)
        super().__init__(
            f"worker[{wid}] died (exitcode={exitcode}) carrying kernel "
            f"instance(s): {', '.join(self.shard_names) or '(none)'}"
        )


class RemoteKernelError(GraphRuntimeError):
    """A kernel raised inside a worker process; carries the remote
    type name and traceback text (the original object stays remote)."""

    def __init__(self, error_type: str, error_msg: str, remote_tb: str = ""):
        self.error_type = error_type
        self.remote_tb = remote_tb
        super().__init__(f"{error_type}: {error_msg}")


class ShardRun(NamedTuple):
    """``RunResult.raw`` of a cgsim-mp run: the detail with no
    backend-independent field."""

    placement: Placement
    worker_walls: Dict[int, float]      # worker id -> its own wall time


class _Farm:
    """The probes of a cgsim-mp run: ring header counters and worker
    reports for the watchdog (a few ints per poll, no per-event hooks),
    the merged sinks for a checkpoint."""

    def __init__(self, graph, io, rings: Dict[Tuple[int, int, int], ShmRing],
                 results: Dict[int, Dict[str, Any]], n_workers: int):
        self.graph = graph
        self.io = io
        self.rings = list(rings.values())
        self.results = results
        self.n_workers = n_workers
        # Filled by the merge: items the workers read from the sources,
        # items stored, and the per-sink delivered counts {io_index: n}.
        self.items_in = 0
        self.items_out = 0
        self.counts: Dict[int, int] = {}

    def progress(self) -> int:
        n = len(self.results)
        for r in self.rings:
            n += r.total_puts + r.total_gets
        return n

    def blockage(self) -> str:
        lines = [f"{len(self.results)}/{self.n_workers} worker(s) reported"]
        for r in self.rings:
            lines.append(f"  ring {r.name}: fill {r.size_for(0)}"
                         f"/{r.capacity}{' EOF' if r.eof else ''}")
        return "\n".join(lines)

    def merge(self, placement: Placement,
              on_error: str) -> List[TaskFailure]:
        """Copy worker sink payloads / RTP values into the caller's
        containers (already vetted by ``check_io`` before the fork).
        A packed run goes to ``store_many`` whole: a list sink extends
        with it, a sink array takes it in one slice write or element
        by element, raising where cgsim's sink store raises, after the
        same prefix.  Under ``on_error="fail"`` a store error is raised
        as cgsim raises it; otherwise it is returned as that sink
        task's failure, as cgsim's scheduler contains it, and the
        other sinks are still stored."""
        graph, io, results = self.graph, self.io, self.results
        n_in = len(graph.inputs)
        failures: List[TaskFailure] = []
        self.items_in = sum(m.get("items_in", 0) for m in results.values())
        for gio in graph.outputs:
            container = io[n_in + gio.io_index]
            net = graph.net(gio.net_id)
            home = placement.sink_home(gio.io_index)
            msg = results.get(home)
            if net.settings.runtime_parameter:
                # A worker that failed before running ("error") sent none.
                value = msg.get("rtp", {}).get(gio.io_index) if msg \
                    else None
                if value is None and not net.producers:
                    # Pure input→output RTP passthrough: echo the input.
                    for gin in graph.inputs:
                        if gin.net_id == gio.net_id:
                            src = io[gin.io_index]
                            value = src.value \
                                if isinstance(src, RuntimeParam) else src
                container.value = value
                self.counts[gio.io_index] = 0 if value is None else 1
                continue
            payload = msg.get("sinks", {}).get(gio.io_index, []) \
                if msg else []
            _store, store_many, cursor = sink_store(net.dtype, container)
            task = f"sink[{gio.io_index}]"
            try:
                store_many(payload)
                stored = len(payload)
            except Exception as exc:
                if on_error == "fail":
                    # cgsim's sink task raises this store's error through
                    # its scheduler: the same class and message here.
                    raise GraphRuntimeError(
                        f"task '{task}' raised {type(exc).__name__}: {exc}"
                    ) from exc
                failures.append(TaskFailure(task=task, error=exc))
                stored = cursor.count if cursor is not None else 0
            self.counts[gio.io_index] = stored
            self.items_out += stored
        return failures

    def checkpoint_state(self) -> Dict[str, Any]:
        """The merged surviving state: each caller container holds
        exactly the delivered FIFO prefix.  The manager has no global
        scheduler step, so ``step`` is -1; fault plans are rejected on
        cgsim-mp, so no fault position is recorded."""
        from ..checkpoint.format import snapshot_rtp, snapshot_sink

        graph = self.graph
        n_in = len(graph.inputs)
        sinks = []
        for gio in graph.outputs:
            container = self.io[n_in + gio.io_index]
            net = graph.net(gio.net_id)
            if net.settings.runtime_parameter:
                sinks.append(snapshot_rtp(gio.io_index, container.value))
            else:
                sinks.append(snapshot_sink(
                    gio.io_index, container,
                    self.counts.get(gio.io_index, 0), net.dtype))
        return {"sinks": sinks, "items_in": self.items_in,
                "items_out": self.items_out, "step": -1}


def _merge_events(tracer, results) -> None:
    """Merge worker event streams into the caller's tracer in one
    deterministic total order.

    Workers share the manager's CLOCK_MONOTONIC timebase, so timestamps
    are globally comparable — but coarse clocks *collide*, and a plain
    ``sort(key=ts)`` scrambles equal-timestamp events across workers
    (Python's stable sort preserves dict-iteration arrival order, which
    depends on worker report timing).  ``Tracer.ingest_all`` breaks ties
    by the ``(worker, seq)`` stamps each worker put on its events, so
    the merged Chrome trace nests begin/end pairs correctly no matter
    which pipe message landed first."""
    if tracer is None:
        return
    from ..observe import Event

    merged = [Event.from_dict(d)
              for msg in results.values() for d in msg.get("events", ())]
    tracer.ingest_all(merged)


def _merge_profiles(results):
    """Merge per-worker sampling reports (counts add) or ``None``."""
    merged = None
    for msg in results.values():
        d = msg.get("profile")
        if not d:
            continue
        from ..observe.profile import ProfileReport

        rep = ProfileReport.from_dict(d)
        merged = rep if merged is None else merged.merge(rep)
    return merged


def _containment_report(graph, placement: Placement, dead_wid: int,
                        error: BaseException, results,
                        failing_task: str = "") -> FailureReport:
    """Worker-loss containment: the dependent cone of the failing
    instance (or, for a hard death, of every instance the dead worker
    carried) is cancelled.  The dead set adds the lost shard and the
    sinks whose home worker is gone or has not reported."""
    dead_insts = {
        graph.kernels[i].instance_name
        for i in placement.shards[dead_wid]
    }
    seeds = {failing_task} if failing_task in dead_insts else dead_insts
    cone = dependent_cone(graph, seeds)
    homes = {gio.io_index: placement.sink_home(gio.io_index)
             for gio in graph.outputs}
    lost_sinks = {f"sink[{i}]" for i, home in homes.items()
                  if home == dead_wid or home not in results}
    return failure_report(
        graph, "isolate",
        [TaskFailure(task=failing_task or f"worker[{dead_wid}]",
                     error=error, via=f"worker[{dead_wid}]")],
        dead_insts | cone | lost_sinks,
        cancelled=cone,
        # Sink tasks run in surviving workers and drain the released
        # rings to end-of-stream: partial, never cancelled.
        cancel_sinks=False,
        # Healthy kernels that shared the lost process: terminated by
        # the loss, not by dataflow dependence.
        collateral=tuple(sorted(dead_insts - seeds)),
    )


def _with_sink_failures(graph, report: Optional[FailureReport],
                        failures: List[TaskFailure]) -> FailureReport:
    """Add the contained sink-store failures of the merge (a sink array
    too small, say) to the run's report, or build the report from them
    alone with the shared rules: a failed sink ends partial."""
    if report is None:
        return failure_report(graph, "isolate", failures,
                              {f.task for f in failures})
    report.failures.extend(failures)
    report.sink_status.update((f.task, "partial") for f in failures)
    return report


def _release_downstream(rings: Dict[Tuple[int, int, int], ShmRing],
                        wid: int) -> None:
    """Mark a lost worker's outbound rings EOF so surviving downstream
    workers drain the delivered prefix and report, instead of waiting
    on a producer that will never write again."""
    for (_net_id, src, _dst), ring in rings.items():
        if src == wid:
            try:
                ring.mark_eof()
            except Exception:  # pragma: no cover - ring already gone
                pass


def run_sharded(graph, io: Tuple[Any, ...], spec: "RunSpec",
                watch: "RunLifecycle") -> RunResult:
    """Execute *graph* sharded across ``spec.workers`` OS processes.

    ``io`` is the usual positional tuple (sources then sinks, §3.7);
    every option is read from *spec*, a
    :class:`~repro.exec.spec.RunSpec` bound for ``"cgsim-mp"``.
    ``on_error="fail"`` raises on worker loss / remote kernel failure;
    ``"isolate"`` returns the result with a contained
    :class:`~repro.faults.FailureReport` instead.

    ``spec.run_id`` (set by :meth:`~repro.exec.ExecutionBackend.run`)
    is the cross-process correlation id every worker stamps on its
    events.  A stack sampler in ``profile`` runs in every worker at its
    interval (merged report on ``result.profile``).

    *watch* is the run core's :class:`~repro.exec.api.RunLifecycle`;
    once every worker has forked, the farm's probes go live on it, so
    the ``watchdog`` polls the shared-memory ring header counters plus
    worker-report arrivals (a wedged farm surfaces a ``health.stall``
    event instead of silence), and a ``checkpoint`` records the merged
    surviving state the run core captures: on a worker loss, a remote
    failure or a farm stall, and (``at_end=True``) after a clean run.
    Interval and explicit triggers need one scheduler's quiescent
    points and do not fire here — the run state lives inside forked
    workers.  ``run_graph``'s retry-resume loop then re-places the lost
    shard's work onto fresh processes and completes from the recorded
    prefix.
    """
    check_io(graph, io)
    placement = place_graph(graph, spec.workers)
    n_workers = placement.n_workers
    tracer = spec.observe
    t0 = perf_counter()

    rings: Dict[Tuple[int, int, int], ShmRing] = {}
    ctx = multiprocessing.get_context("fork")
    procs: List[Any] = []
    conns: List[Any] = []
    files: Dict[int, int] = {}          # worker id -> hand-back file fd
    results: Dict[int, Dict[str, Any]] = {}
    failure_report: Optional[FailureReport] = None
    failure_exc: Optional[BaseException] = None
    stall_lines: List[str] = []

    try:
        for key in placement.ring_keys():
            net_id, src, dst = key
            if src >= dst:  # pragma: no cover - placement invariant
                raise GraphRuntimeError(
                    f"ring {key} violates the worker-order invariant "
                    f"(src must be < dst); placement bug"
                )
            rings[key] = ShmRing.create(
                capacity=spec.ring_capacity,
                name=f"{graph.net(net_id).name}@w{src}->w{dst}",
                data_bytes=spec.ring_bytes,
            )

        for wid in range(n_workers):
            files[wid] = os.memfd_create(f"cgsim-mp-w{wid}", os.MFD_CLOEXEC)
            wspec = WorkerSpec(wid=wid, placement=placement, io=io,
                               rings=rings, run=spec, sink_fd=files[wid])
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            p = ctx.Process(target=worker_main, args=(wspec, child_conn),
                            daemon=True, name=f"cgsim-mp-w{wid}")
            p.start()
            child_conn.close()
            procs.append(p)
            conns.append(parent_conn)

        farm = _Farm(graph, io, rings, results, n_workers)
        watch.live(farm)

        pending = set(range(n_workers))
        deadline: Optional[float] = None
        while pending:
            ready = multiprocessing.connection.wait(
                [conns[w] for w in pending], timeout=0.05,
            )
            for conn in ready:
                wid = conns.index(conn)
                try:
                    msg = conn.recv()
                except EOFError:
                    # The pipe died without a result: the worker was
                    # killed (os._exit, a signal, the OOM killer).
                    pending.discard(wid)
                    procs[wid].join(timeout=1.0)
                    exc: BaseException = WorkerCrashError(
                        wid, procs[wid].exitcode,
                        [graph.kernels[i].instance_name
                         for i in placement.shards[wid]],
                    )
                    failure_exc = exc
                    failure_report = _containment_report(
                        graph, placement, wid, exc, results,
                    )
                    _release_downstream(rings, wid)
                    continue
                fd = files.pop(wid)
                try:
                    if msg.get("packed"):
                        msg["sinks"].update(read_packed(fd, msg["packed"]))
                finally:
                    os.close(fd)
                results[wid] = msg
                pending.discard(wid)
                if msg["kind"] == "stall":
                    stall_lines.append(msg["stall_diagnosis"])
                elif msg["kind"] in ("failure", "error"):
                    err_info = msg.get("failure") or msg
                    exc = RemoteKernelError(
                        err_info.get("error_type", "Exception"),
                        err_info.get("error_msg", ""),
                        err_info.get("traceback", ""),
                    )
                    failure_exc = exc
                    failure_report = _containment_report(
                        graph, placement, wid, exc, results,
                        failing_task=err_info.get("task", ""),
                    )
                    _release_downstream(rings, wid)
            if (failure_report is not None or stall_lines) and pending:
                # Containment/teardown: give survivors a short grace to
                # report their partial state, then stop the farm.
                now = perf_counter()
                if deadline is None:
                    deadline = now + _REAP_GRACE
                elif now > deadline:
                    for wid in sorted(pending):
                        procs[wid].terminate()
                    break

        wall = perf_counter() - t0
        # Merge whatever arrived even after a failure: surviving
        # workers' sinks hold a valid prefix (isolate semantics).
        sink_failures = farm.merge(placement, spec.on_error)
        if sink_failures:
            # A contained store error's traceback keeps the merge frames
            # and this one alive in a cycle: drop the packed sink views,
            # which map the hand-back files, and clear the merge frames,
            # so each file closes now, not at the next cyclic collection.
            for m in results.values():
                m.pop("sinks", None)
            for f in sink_failures:
                traceback.clear_frames(f.error.__traceback__)
            failure_report = _with_sink_failures(graph, failure_report,
                                                 sink_failures)
        _merge_events(tracer, results)
        profile_report = _merge_profiles(results)

        if failure_report is not None and spec.on_error == "fail":
            assert failure_exc is not None
            failure_exc.report = failure_report  # type: ignore[union-attr]
            raise failure_exc

        task_states: Dict[str, str] = {}
        task_resumes: Dict[str, int] = {}
        task_cpu: Dict[str, float] = {}
        task_blocked: Dict[str, float] = {}
        for msg in results.values():
            task_states.update(msg.get("task_states", {}))
            task_resumes.update(msg.get("task_resumes", {}))
            task_cpu.update(msg.get("task_cpu", {}))
            task_blocked.update(msg.get("task_blocked", {}))
        worker_walls = {w: m.get("wall_time", 0.0)
                        for w, m in results.items()}

        deadlocked = bool(stall_lines) and failure_report is None
        return RunResult(
            backend=spec.backend,
            graph_name=graph.name,
            outputs=list(io[len(graph.inputs):]),
            wall_time=wall,
            items_in=farm.items_in,
            items_out=farm.items_out,
            completed=not deadlocked and failure_report is None
            and len(results) == n_workers,
            context_switches=sum(
                m.get("context_switches", 0) for m in results.values()
            ),
            n_threads=n_workers,
            kernel_fraction=kernel_fraction(
                sum(task_cpu.values()), sum(worker_walls.values()),
                bool(spec.profile)),
            task_states=task_states,
            per_kernel_resumes=task_resumes,
            per_kernel_time=task_cpu,
            per_kernel_blocked=task_blocked,
            stall_diagnosis="\n".join(stall_lines),
            failure=failure_report,
            profile=profile_report,
            raw=ShardRun(placement, worker_walls),
        )
    except BaseException as exc:
        # The error's traceback keeps this frame and the merge frames
        # alive, and their packed sink arrays map the hand-back files:
        # drop those views so each file closes now, not at the next
        # cyclic collection.
        results.clear()
        msg = None
        seen = set()
        while exc is not None and id(exc) not in seen:
            seen.add(id(exc))
            traceback.clear_frames(exc.__traceback__)
            exc = exc.__cause__ or exc.__context__
        raise
    finally:
        for p in procs:
            if p.exitcode is None:
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)
            if p.exitcode is None:
                p.kill()
                p.join()
            p.close()
        for conn in conns:
            conn.close()
        for fd in files.values():
            os.close(fd)
        for ring in rings.values():
            ring.close()
