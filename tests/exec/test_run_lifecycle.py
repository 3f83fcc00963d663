"""One run lifecycle for every engine.

:meth:`repro.exec.ExecutionBackend.run` starts the watchdog and the
sampler and decides every checkpoint capture from how the run ended;
the engines only expose probes.  So the same three endings give the
same checkpoints on every backend whose run-option table honours
``checkpoint`` and ``watchdog``: a completed run captures ``final``
before ``run.end``, a raised error carries its ``on_fault`` path, and a
contained failure's report names the run's last checkpoint.
"""

from pathlib import Path

import pytest

import repro
from repro.checkpoint import Checkpoint, CheckpointPolicy
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
from repro.errors import GraphRuntimeError
from repro.exec import run_graph
from repro.observe.events import CHECKPOINT_CAPTURE, RUN_END

#: Every backend whose table column honours checkpoint and watchdog.
BACKENDS = ("cgsim", "pysim", "cgsim-mp")
DATA = list(range(1, 9))


@compute_kernel(realm=AIE)
async def life_scale(a: In[int64], z: Out[int64]):
    while True:
        await z.put(10 * (await a.get()))


@compute_kernel(realm=AIE)
async def life_boom(a: In[int64], z: Out[int64]):
    while True:
        v = await a.get()
        if v == 30:
            raise ValueError("lifecycle boom")
        await z.put(v + 1)


@compute_kernel(realm=AIE)
async def life_inc(a: In[int64], z: Out[int64]):
    while True:
        await z.put(1 + (await a.get()))


def _chain(second):
    @make_compute_graph(name=f"life_{second.fn.__name__}")
    def g(x: IoC[int64]):
        a = IoConnector(int64, name="a")
        y = IoConnector(int64, name="y")
        life_scale(x, a)
        second(a, y)
        return y

    return g


CLEAN, FAILING = _chain(life_inc), _chain(life_boom)


def _options(backend):
    return {"workers": 2} if backend == "cgsim-mp" else {}


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_ending_captures_the_same_way(tmp_path, backend):
    # A completed run: a final capture, traced before run.end.
    out = []
    result = run_graph(CLEAN, DATA, out, backend=backend, observe=True,
                       watchdog=30.0, **_options(backend),
                       checkpoint={"dir": str(tmp_path / "end"),
                                   "at_end": True})
    assert result.completed and out == [10 * v + 1 for v in DATA]
    assert result.checkpoint.reason == "final"
    assert result.warnings == []
    kinds = [ev.kind for ev in result.trace.events]
    assert kinds.index(CHECKPOINT_CAPTURE) < kinds.index(RUN_END)

    # on_error="fail": the raised error carries a loadable checkpoint.
    with pytest.raises(GraphRuntimeError, match="lifecycle boom") as info:
        run_graph(FAILING, DATA, [], backend=backend,
                  checkpoint=str(tmp_path / "fail"), **_options(backend))
    ckpt = Checkpoint.load(info.value.checkpoint_path)
    assert ckpt.reason == "on_fault" and ckpt.backend == backend

    # isolate: the contained failure names the run's last checkpoint.
    result = run_graph(FAILING, DATA, [], backend=backend,
                       on_error="isolate", **_options(backend),
                       checkpoint=str(tmp_path / "isolate"))
    assert result.failure is not None and not result.completed
    assert result.checkpoint.reason == "on_fault"
    assert result.failure.checkpoint_path == result.checkpoint.last


@pytest.mark.parametrize("module", ["core/runtime.py", "mp/manager.py",
                                    "x86sim/runner.py"])
def test_engines_keep_no_run_lifecycle(module):
    """The watchdog and checkpoint captures are the run core's: no
    engine so much as names them."""
    source = (Path(repro.__file__).parent / module).read_text()
    for name in ("CheckpointSession", "ProgressWatchdog"):
        assert name not in source, f"{module} names {name}"


def test_reused_policy_names_each_run(tmp_path):
    """A policy without its own run id names each run's files by that
    run's id: reusing it never overwrites an earlier run's checkpoint."""
    policy = CheckpointPolicy(dir=str(tmp_path), at_end=True)
    first = run_graph(CLEAN, DATA, [], checkpoint=policy)
    second = run_graph(CLEAN, DATA, [], checkpoint=policy)
    assert first.checkpoint.last != second.checkpoint.last
    assert Checkpoint.load(first.checkpoint.last).run_id == first.run_id
    assert policy.run_id == ""
