"""Progress watchdog: stall detection, re-arming, run_graph wiring."""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    compute_kernel,
    int32,
    make_compute_graph,
)
from repro.errors import GraphRuntimeError
from repro.observe import Tracer
from repro.observe import health
from repro.observe.events import HEALTH_STALL
from repro.observe.health import (
    ProgressWatchdog,
    StallReport,
    coerce_watchdog,
)


@compute_kernel(realm=AIE)
async def napper_kernel(inp: In[int32], out: Out[int32]):
    """Pass-through that pins the scheduler thread per element."""
    while True:
        v = await inp.get()
        time.sleep(0.09)
        await out.put(v)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestProgressWatchdog:
    def test_no_stall_while_progress_flows(self):
        counter = {"n": 0}

        def progress():
            counter["n"] += 1  # every poll sees a new value
            return counter["n"]

        dog = ProgressWatchdog(0.05)
        dog.start(progress_fn=progress)
        time.sleep(0.25)
        dog.stop()
        assert not dog.stalled

    def test_stall_fires_once_then_rearms(self):
        box = {"v": 0}
        dog = ProgressWatchdog(0.05)
        dog.start(progress_fn=lambda: box["v"])
        assert _wait_for(lambda: len(dog.stalls) == 1)
        # frozen progress → exactly one report per stall window
        time.sleep(0.15)
        assert len(dog.stalls) == 1
        # progress resumes, then freezes again → second report
        box["v"] = 1
        assert _wait_for(lambda: len(dog.stalls) == 2)
        dog.stop()

    def test_stall_report_carries_blockage_snapshot(self):
        dog = ProgressWatchdog(0.05)
        dog.start(progress_fn=lambda: 0,
                  blockage_fn=lambda: "q0: 3/4 full", scope="g")
        assert _wait_for(lambda: dog.stalled)
        dog.stop()
        rep = dog.stalls[0]
        assert rep.snapshot == "q0: 3/4 full"
        assert rep.scope == "g"
        assert rep.window_s == 0.05
        d = rep.to_dict()
        assert d["snapshot"] == "q0: 3/4 full" and d["window_s"] == 0.05

    def test_stall_emits_health_event(self):
        t = Tracer(run_id="r-dog")
        dog = ProgressWatchdog(0.05)
        dog.start(progress_fn=lambda: 0, tracer=t, scope="g")
        assert _wait_for(lambda: dog.stalled)
        dog.stop()
        stalls = [ev for ev in t.events if ev.kind == HEALTH_STALL]
        assert stalls
        assert stalls[0].run == "r-dog"
        assert stalls[0].meta["window_s"] == 0.05

    def test_on_stall_callback(self):
        got: list = []
        dog = ProgressWatchdog(0.05, on_stall=got.append)
        dog.start(progress_fn=lambda: 0)
        assert _wait_for(lambda: got)
        dog.stop()
        assert isinstance(got[0], StallReport)

    def test_notify_heartbeat_counts_as_progress(self):
        dog = ProgressWatchdog(0.08)
        dog.start(progress_fn=lambda: 0)
        for _ in range(12):
            dog.notify()
            time.sleep(0.03)
        assert not dog.stalled
        dog.stop()

    def test_raising_progress_fn_ends_quietly(self):
        dog = ProgressWatchdog(0.05)
        dog.start(progress_fn=lambda: 1 / 0)
        time.sleep(0.2)
        dog.stop()
        assert not dog.stalled

    def test_stop_is_idempotent(self):
        dog = ProgressWatchdog(0.05)
        dog.start(progress_fn=lambda: 0)
        dog.stop()
        dog.stop()

    def test_bad_window_rejected(self):
        with pytest.raises(GraphRuntimeError, match="window"):
            ProgressWatchdog(0.0)


def _poller_threads():
    return [t for t in threading.enumerate() if t.name == "repro-watchdog"]


class TestSharedPoller:
    """Every watchdog is polled by one thread; starting one is not a
    thread start."""

    def test_concurrent_watchdogs_share_one_thread(self):
        dogs = [ProgressWatchdog(5.0) for _ in range(3)]
        for dog in dogs:
            dog.start(progress_fn=lambda: 0)
        try:
            # (a thread retiring from earlier tests may linger briefly)
            assert _wait_for(lambda: len(_poller_threads()) == 1)
        finally:
            for dog in dogs:
                dog.stop()

    def test_back_to_back_runs_reuse_the_thread(self):
        health._poller.retire_idle()  # no thread lingering from before
        first = ProgressWatchdog(5.0, poll_s=2.0)
        first.start(progress_fn=lambda: 0)
        thread = health._poller.thread
        # wait until the thread sleeps toward ``first``'s first poll
        assert _wait_for(lambda: health._poller.wake_at > 0)
        first.stop()
        second = ProgressWatchdog(5.0, poll_s=2.0)
        second.start(progress_fn=lambda: 0)
        try:
            # The idle thread lingers until that scheduled wake-up.
            assert health._poller.thread is thread
        finally:
            second.stop()

    def test_concurrent_start_stop_stress(self):
        """More threads than cores start and stop watchdogs with a tiny
        switch interval; every registration must be undone."""
        n_threads, rounds = 8, 100
        dogs = []

        def worker():
            for _ in range(rounds):
                dog = ProgressWatchdog(0.05, poll_s=0.001)
                dog.start(progress_fn=lambda: 0)
                dogs.append(dog)
                dog.stop()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert len(dogs) == n_threads * rounds
        assert not health._poller.due
        assert not any(repr(d).count("running") for d in dogs)

    def test_idle_thread_exits(self):
        dog = ProgressWatchdog(0.02)
        dog.start(progress_fn=lambda: 0)
        dog.stop()
        assert _wait_for(lambda: health._poller.thread is None)

    def test_stop_from_on_stall_callback(self):
        got: list = []

        def on_stall(report):
            got.append(report)
            dog.stop()

        dog = ProgressWatchdog(0.02, poll_s=0.005, on_stall=on_stall)
        dog.start(progress_fn=lambda: 0)
        assert _wait_for(lambda: got)
        time.sleep(0.05)
        assert len(got) == 1
        assert repr(dog).count("idle") == 1

    def test_idle_thread_retired_before_fork(self):
        dog = ProgressWatchdog(5.0)
        dog.start(progress_fn=lambda: 0)
        dog.stop()
        health._poller.retire_idle()
        assert health._poller.thread is None
        assert _wait_for(lambda: not _poller_threads())

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_with_no_watchdogs(self):
        dog = ProgressWatchdog(5.0)
        dog.start(progress_fn=lambda: 0)
        try:
            rd, wr = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: report the poller state and leave
                ok = health._poller.thread is None and not health._poller.due
                os.write(wr, b"1" if ok else b"0")
                os._exit(0)
            os.close(wr)
            child_view = os.read(rd, 1)
            os.close(rd)
            os.waitpid(pid, 0)
            assert child_view == b"1"
            assert dog in health._poller.due  # the parent keeps watching
        finally:
            dog.stop()


class TestCoerceWatchdog:
    def test_off_values(self):
        assert coerce_watchdog(None) is None
        assert coerce_watchdog(False) is None
        assert coerce_watchdog(0) is None

    def test_number_is_window(self):
        dog = coerce_watchdog(2.5)
        assert isinstance(dog, ProgressWatchdog)
        assert dog.window_s == 2.5

    def test_instance_passthrough(self):
        mine = ProgressWatchdog(1.0)
        assert coerce_watchdog(mine) is mine

    def test_true_rejected(self):
        with pytest.raises(GraphRuntimeError, match="watchdog"):
            coerce_watchdog(True)

    def test_garbage_rejected(self):
        with pytest.raises(GraphRuntimeError, match="watchdog"):
            coerce_watchdog("soon")


class TestRunGraphWatchdog:
    def _graph(self):
        from conftest import build_fig4_graph
        return build_fig4_graph()

    def test_healthy_run_reports_no_stall(self):
        from repro.exec import run_graph

        g = self._graph()
        sink: list = []
        dog = ProgressWatchdog(5.0)
        result = run_graph(g, list(range(256)), sink, watchdog=dog)
        assert result.status == "ok"
        assert not dog.stalled

    def test_watchdog_window_option_accepted_everywhere(self):
        from repro.exec import run_graph

        for backend in ("cgsim", "pysim", "x86sim"):
            g = self._graph()
            sink: list = []
            result = run_graph(g, list(range(64)), sink,
                               backend=backend, watchdog=5.0)
            assert result.status == "ok", backend

    def test_stalled_kernel_detected(self):
        """A kernel that blocks the scheduler thread without making
        queue progress trips the watchdog mid-run, and the result
        carries the stall warning, on both cooperative backends."""
        from repro.exec import run_graph

        @make_compute_graph(name="nap")
        def g(a: IoC[int32]):
            c = IoConnector(int32, name="c")
            napper_kernel(a, c)
            return c

        for backend in ("cgsim", "pysim"):
            sink: list = []
            dog = ProgressWatchdog(0.02, poll_s=0.005)
            result = run_graph(g, [1, 2, 3], sink, watchdog=dog,
                               observe=True, backend=backend)
            assert result.status == "ok"
            assert dog.stalled
            assert any(ev.kind == HEALTH_STALL
                       for ev in result.trace.events)
            assert any("no-progress window" in w for w in result.warnings)
            assert result.to_json()["warnings"] == result.warnings
