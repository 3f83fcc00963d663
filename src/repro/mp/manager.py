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
4. **monitor** — poll pipes and exit codes; a worker that dies without
   reporting (``os._exit``, a segfault, the OOM killer) triggers
   containment: the remaining farm is torn down and the run returns a
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
   the shared :func:`~repro.core.sources_sinks.sink_store`), RTP latch
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
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

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


def _merge_outputs(graph, placement: Placement, io,
                   results) -> Tuple[int, Dict[int, int]]:
    """Copy worker sink payloads / RTP values into the caller's
    containers (already vetted by ``check_io`` before the fork);
    returns total items delivered plus the per-sink delivered counts
    ``{io_index: n}`` (the checkpoint layer's input)."""
    n_in = len(graph.inputs)
    items_out = 0
    counts: Dict[int, int] = {}
    for gio in graph.outputs:
        container = io[n_in + gio.io_index]
        net = graph.net(gio.net_id)
        if net.settings.runtime_parameter:
            home = placement.sink_home(gio.io_index)
            msg = results.get(home)
            # A worker that failed before running ("error") sent none.
            value = msg.get("rtp", {}).get(gio.io_index) if msg else None
            if value is None and not net.producers:
                # Pure input→output RTP passthrough: echo the input.
                for gin in graph.inputs:
                    if gin.net_id == gio.net_id:
                        src = io[gin.io_index]
                        value = src.value if isinstance(src, RuntimeParam) \
                            else src
            container.value = value
            counts[gio.io_index] = 0 if value is None else 1
            continue
        home = placement.sink_home(gio.io_index)
        msg = results.get(home)
        payload = msg.get("sinks", {}).get(gio.io_index, []) if msg else []
        if type(payload) is np.ndarray and not (
                isinstance(container, list)
                or payload.dtype == container.dtype):
            # A packed run goes straight into a list sink or a sink array
            # of its own dtype; a cast into another dtype goes element by
            # element, raising where cgsim's element store raises.
            payload = list(payload)
        _store, store_many, _cursor = sink_store(net.dtype, container)
        store_many(payload)
        counts[gio.io_index] = len(payload)
        items_out += len(payload)
    return items_out, counts


def _capture_mp_checkpoint(graph, io, policy, reason: str, *,
                           items_in: int, items_out: int,
                           counts: Dict[int, int], tracer=None) -> str:
    """Manager-side checkpoint of the merged surviving state.

    Taken after worker sink payloads were merged into the caller's
    containers — each container then holds exactly the delivered FIFO
    prefix, which is what the logical checkpoint records.  The manager
    has no global scheduler step, so ``step`` is -1; fault plans are
    not supported on cgsim-mp, so the fault position is empty.  The
    file is named by ``policy.run_id``, as on cgsim (the run's id when
    the policy names none).
    """
    from ..checkpoint.format import (
        Checkpoint,
        default_checkpoint_name,
        fresh_timestamp,
        graph_digest,
        snapshot_rtp,
        snapshot_sink,
    )

    n_in = len(graph.inputs)
    sinks = []
    for gio in graph.outputs:
        container = io[n_in + gio.io_index]
        if graph.net(gio.net_id).settings.runtime_parameter:
            sinks.append(snapshot_rtp(gio.io_index, container.value))
        else:
            sinks.append(snapshot_sink(
                gio.io_index, container, counts.get(gio.io_index, 0),
                graph.net(gio.net_id).dtype,
            ))
    ckpt = Checkpoint(
        graph_name=graph.name,
        graph_digest=graph_digest(graph),
        backend="cgsim-mp",
        run_id=policy.run_id,
        reason=reason,
        step=-1,
        items_in=items_in,
        items_out=items_out,
        sinks=sinks,
        options=policy.options,
        wall_ts=fresh_timestamp(),
    )
    path = os.path.join(
        policy.dir, default_checkpoint_name(policy.run_id, 0))
    ckpt.save(path)
    if tracer is not None:
        tracer.checkpoint_capture(path=path, reason=reason, step=-1)
    return path


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


def run_sharded(graph, io: Tuple[Any, ...], spec: "RunSpec") -> RunResult:
    """Execute *graph* sharded across ``spec.workers`` OS processes.

    ``io`` is the usual positional tuple (sources then sinks, §3.7);
    every option is read from *spec*, a
    :class:`~repro.exec.spec.RunSpec` bound for ``"cgsim-mp"``.
    ``on_error="fail"`` raises on worker loss / remote kernel failure;
    ``"isolate"`` returns the result with a contained
    :class:`~repro.faults.FailureReport` instead.

    ``spec.run_id`` (set by :meth:`~repro.exec.ExecutionBackend.run`)
    is the cross-process correlation id every worker stamps on its
    events.  The ``watchdog`` polls the shared-memory ring header
    counters plus worker-report arrivals, so a wedged farm surfaces a
    ``health.stall`` event instead of silence.  A stack sampler in ``profile`` runs in
    every worker at its interval (merged report on ``result.profile``).

    ``checkpoint`` enables manager-side capture of the merged surviving
    state: on worker death, on a contained remote failure, on a farm
    stall, and (``at_end=True``) after a clean run.  Interval and
    explicit triggers are a single-scheduler concept and are ignored
    here — the run state lives inside forked workers with no shared
    quiescent point.  The checkpoint path rides on
    ``FailureReport.checkpoint_path``, the raised exception's
    ``checkpoint_path`` attribute, and ``result.checkpoint``, so
    ``run_graph``'s retry-resume loop re-places the lost shard's work
    onto fresh processes and completes from the recorded prefix.
    """
    check_io(graph, io)
    placement = place_graph(graph, spec.workers)
    n_workers = placement.n_workers
    tracer, checkpoint, dog = spec.observe, spec.checkpoint, spec.watchdog
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

        if dog is not None:
            # Worker liveness from the manager side: the shared-memory
            # ring header counters advance whenever any worker moves
            # data, and results arriving count as progress too.  Reads
            # a few ints per poll — no per-event hooks anywhere.
            ring_list = list(rings.values())

            def _mp_progress():
                n = len(results)
                for r in ring_list:
                    n += r.total_puts + r.total_gets
                return n

            def _mp_blockage() -> str:
                lines = [f"{len(results)}/{n_workers} worker(s) reported"]
                for r in ring_list:
                    lines.append(
                        f"  ring {r.name}: fill {r.size_for(0)}"
                        f"/{r.capacity}{' EOF' if r.eof else ''}"
                    )
                return "\n".join(lines)

            dog.start(progress_fn=_mp_progress, blockage_fn=_mp_blockage,
                      tracer=tracer, scope=graph.name)

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
        items_out, sink_counts = _merge_outputs(graph, placement, io,
                                                results)
        _merge_events(tracer, results)
        profile_report = _merge_profiles(results)

        ckpt_info = None
        if checkpoint is not None:
            reason = ""
            if failure_report is not None:
                if checkpoint.on_fault:
                    reason = "worker_death" \
                        if isinstance(failure_exc, WorkerCrashError) \
                        else "on_fault"
            elif stall_lines:
                reason = "on_fault" if checkpoint.on_fault else ""
            elif checkpoint.at_end and len(results) == n_workers:
                reason = "final"
            if reason:
                try:
                    path = _capture_mp_checkpoint(
                        graph, io, checkpoint, reason,
                        items_in=sum(m.get("items_in", 0)
                                     for m in results.values()),
                        items_out=items_out, counts=sink_counts,
                        tracer=tracer,
                    )
                except Exception:
                    # A failed capture must never mask the run outcome.
                    path = ""
                if path:
                    from ..checkpoint.format import CheckpointInfo
                    ckpt_info = CheckpointInfo(
                        last=path, reason=reason, count=1, paths=[path])
                    if failure_report is not None:
                        failure_report.checkpoint_path = path

        if failure_report is not None and spec.on_error == "fail":
            assert failure_exc is not None
            failure_exc.report = failure_report  # type: ignore[union-attr]
            if ckpt_info is not None:
                failure_exc.checkpoint_path = ckpt_info.last  # type: ignore[union-attr]
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
            items_in=sum(m.get("items_in", 0) for m in results.values()),
            items_out=items_out,
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
            checkpoint=ckpt_info,
            warnings=dog.warnings() if dog is not None else [],
            raw=ShardRun(placement, worker_walls),
        )
    finally:
        if dog is not None:
            dog.stop()
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
