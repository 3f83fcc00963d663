"""cgsim-mp leaves nothing behind: no process, no file descriptor and
no ``/dev/shm`` entry outlives a run, whether it ends cleanly, loses a
worker, re-raises a remote failure or stalls — and a forked process
that makes sharded calls and leaves with ``os._exit`` (the way
``perfbench`` samples set-up time) leaves no process of its own alive.
"""

import json
import multiprocessing
import os
import select
import signal

import pytest
from farm_graphs import IIR_FARM4, iir_farm_io

from repro.core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    compute_kernel,
    int64,
    make_compute_graph,
)
from repro.exec import run_graph
from repro.mp.manager import RemoteKernelError


@compute_kernel(realm=AIE)
async def hyg_exit(a: In[int64], z: Out[int64]):
    await z.put(await a.get())
    os._exit(9)


@compute_kernel(realm=AIE)
async def hyg_raise(a: In[int64], z: Out[int64]):
    await a.get()
    raise ValueError("hygiene boom")


@compute_kernel(realm=AIE)
async def hyg_add(a: In[int64], b: In[int64], z: Out[int64]):
    while True:
        await z.put(await a.get() + await b.get())


def _lanes(kernel):
    @make_compute_graph(name=f"hyg_{kernel.fn.__name__}")
    def g(x0: IoC[int64], x1: IoC[int64]):
        outs = []
        for i, x in enumerate((x0, x1)):
            y = IoConnector(int64, name=f"y{i}")
            kernel(x, y)
            outs.append(y)
        return tuple(outs)

    return g


@make_compute_graph(name="hyg_starved")
def STARVED(a0: IoC[int64], b0: IoC[int64], a1: IoC[int64],
            b1: IoC[int64]):
    """Two lanes whose adders get one ``b`` for three ``a``: each
    worker stalls with input left undrained."""
    outs = []
    for i, (a, b) in enumerate(((a0, b0), (a1, b1))):
        y = IoConnector(int64, name=f"y{i}")
        hyg_add(a, b, y)
        outs.append(y)
    return tuple(outs)


@compute_kernel(realm=AIE)
async def hyg_inc(a: In[int64], z: Out[int64]):
    while True:
        await z.put(1 + (await a.get()))


@make_compute_graph(name="hyg_chain")
def CHAIN(x: IoC[int64]):
    """A chain that two workers split: one inter-worker ring."""
    a = IoConnector(int64, name="a")
    y = IoConnector(int64, name="y")
    hyg_inc(x, a)
    hyg_inc(a, y)
    return y


def _clean():
    sinks = [[] for _ in range(4)]
    result = run_graph(IIR_FARM4, *iir_farm_io(2), *sinks,
                       backend="cgsim-mp", workers=2)
    assert result.completed and all(len(s) == 2 for s in sinks)


def _ring():
    sink = []
    result = run_graph(CHAIN, list(range(50)), sink, backend="cgsim-mp",
                       workers=2)
    assert result.raw.placement.ring_keys()
    assert result.completed and sink == list(range(2, 52))


def _worker_exit():
    result = run_graph(_lanes(hyg_exit), [1, 2], [3, 4], [], [],
                       backend="cgsim-mp", workers=2, on_error="isolate")
    assert result.failure is not None and not result.completed


def _remote_raise():
    with pytest.raises(RemoteKernelError, match="hygiene boom"):
        run_graph(_lanes(hyg_raise), [1], [2], [], [],
                  backend="cgsim-mp", workers=2)


def _stall():
    result = run_graph(STARVED, [1, 2, 3], [1], [1, 2, 3], [1], [], [],
                       backend="cgsim-mp", workers=2)
    assert not result.completed and "stalled" in result.stall_diagnosis


CASES = {"clean": _clean, "ring": _ring, "worker_exit": _worker_exit,
         "remote_raise": _remote_raise, "stall": _stall}


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def _shm():
    return sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
        else []


@pytest.fixture(scope="module", autouse=True)
def _warm():
    """One run first, so what the process opens once (and keeps) is
    not counted against the cases."""
    _clean()


@pytest.mark.parametrize("case", sorted(CASES))
def test_nothing_outlives_the_run(case):
    fds, shm = _open_fds(), _shm()
    CASES[case]()
    assert multiprocessing.active_children() == []
    assert _open_fds() == fds
    assert _shm() == shm


def _stat(pid):
    """``(state, ppid)`` of *pid*, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _alive(pid):
    st = _stat(pid)
    return st is not None and st[0] != "Z"


def _children(pid):
    """Live processes whose parent is *pid*."""
    return [int(e) for e in os.listdir("/proc") if e.isdigit()
            and (st := _stat(e)) is not None and st[1] == pid
            and st[0] != "Z"]


def test_forked_caller_leaves_no_process_behind():
    """A forked child makes sharded calls (the file hand-back of a
    farm, an inter-worker ring of a chain) and leaves with
    ``os._exit``; every process it started is gone once it is reaped."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            os.close(rfd)
            _clean()
            _ring()
            msg = {"children": _children(os.getpid())}
            code = 0
        except BaseException as exc:
            msg = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            try:
                os.write(wfd, json.dumps(msg).encode())
            finally:
                os._exit(code)
    os.close(wfd)
    chunks = []
    try:
        while True:
            ready, _, _ = select.select([rfd], [], [], 120.0)
            if not ready:
                os.kill(pid, signal.SIGKILL)
                pytest.fail("forked caller did not finish in 120 s")
            chunk = os.read(rfd, 65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status = os.waitpid(pid, 0)
    msg = json.loads(b"".join(chunks).decode() or "{}")
    assert "error" not in msg, msg.get("error")
    assert os.waitstatus_to_exitcode(status) == 0
    assert [c for c in msg["children"] if _alive(c)] == []
