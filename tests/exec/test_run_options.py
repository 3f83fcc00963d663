"""The run-option table (:mod:`repro.exec.spec`) is what every backend does.

For every backend x option cell of the table, a legal value is run on
the Figure 4 graph: an honoured option runs, an ignored one runs with
the same sinks as the plain run, and a rejected one raises at
``prepare`` before any engine state (coroutine, thread, worker) exists.
The pinned matrix below records what each backend does with each
option, so a cell that drifts fails here.
"""

import dataclasses
import gc
import glob
import io
import warnings

import numpy as np
import pytest

from repro.apps.bitonic import BITONIC_GRAPH
from repro.checkpoint import Checkpoint
from repro.errors import GraphRuntimeError
from repro.exec import available_backends, get_backend, run_graph
from repro.exec.__main__ import list_backends
from repro.exec.spec import MODELS, OPTIONS, bind_options
from repro.faults import FaultPlan

DATA = [1, 2, 3, 4, 5]
BACKENDS = ("cgsim", "pysim", "x86sim", "cgsim-mp")

#: h = honoured, i = ignored, r = rejected with a reason, - = unknown;
#: one letter per backend in ``BACKENDS`` order.
PINNED = {
    "optimize": "hiii",
    "capacity": "hhhh",
    "validate": "hh-h",
    "batch_io": "hh-h",
    "max_steps": "hh--",
    "strict": "hhh-",
    "timeout": "--h-",
    "transport": "hh--",
    "workers": "---h",
    "ring_capacity": "---h",
    "ring_bytes": "---h",
    "on_error": "hhhh",
    "faults": "hhhr",
    "observe": "hhhh",
    "watchdog": "hhih",
    "checkpoint": "hhrh",
    "profile": "hhrh",
    "retry": "hhhh",
    "run_id": "hhhh",
}


def _legal(name, tmp_path):
    """A legal, non-default value of every option."""
    return {
        "optimize": "fuse", "capacity": 8, "validate": True,
        "batch_io": 4, "max_steps": 100_000, "strict": True,
        "timeout": 30.0, "transport": "ring", "workers": 1,
        "ring_capacity": 64, "ring_bytes": 1 << 16,
        "on_error": "isolate", "faults": FaultPlan(()), "observe": True,
        "watchdog": 30.0, "checkpoint": str(tmp_path), "profile": "sample",
        "retry": 2, "run_id": "r-table",
    }[name]


def _action(cell):
    return "-" if cell is None else cell.action[0]


def test_table_matches_pinned_matrix():
    assert set(OPTIONS) == set(PINNED)
    for name, option in OPTIONS.items():
        got = "".join(_action(option.cells.get(b)) for b in BACKENDS)
        assert got == PINNED[name], name


def test_every_registered_backend_has_a_column():
    for name in available_backends():
        assert name in MODELS, f"{name} has no run-option table column"
        assert any(name in o.cells for o in OPTIONS.values())


def test_list_backends_prints_the_table():
    out = io.StringIO()
    assert list_backends(file=out) == 0
    text = out.getvalue()
    for name in list(OPTIONS) + available_backends():
        assert name in text


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", list(PINNED))
def test_cell_behaviour(fig4_graph, tmp_path, backend, name):
    cell = OPTIONS[name].cells.get(backend)
    value = _legal(name, tmp_path)
    # An un-awaited coroutine warns from its finalizer, where an "error"
    # filter cannot raise; record the warnings and assert none instead.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        if cell is None or cell.action == "rejected":
            with pytest.raises(GraphRuntimeError):
                get_backend(backend).prepare(fig4_graph, (DATA, []),
                                             **{name: value})
        else:
            out = []
            result = run_graph(fig4_graph, DATA, out, backend=backend,
                               **{name: value})
            assert result.completed
            if cell.action == "ignored":
                plain = []
                run_graph(fig4_graph, DATA, plain, backend=backend)
                assert out == plain
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("backend", ["cgsim", "pysim"])
@pytest.mark.parametrize("name", ["timeout", "workers", "stall_timeout"])
def test_cooperative_engines_refuse_unknown_options_at_prepare(
        fig4_graph, backend, name):
    with pytest.raises(GraphRuntimeError,
                       match=rf"{backend} backend got unknown options: "
                             rf"\['{name}'\]"):
        run_graph(fig4_graph, DATA, [], backend=backend, **{name: 5})


def test_sharded_engine_refuses_stall_timeout(fig4_graph):
    """The cross-worker stall backstop is a worker constant, not an
    option: the watchdog is the one no-progress bound callers set."""
    with pytest.raises(GraphRuntimeError,
                       match=r"cgsim-mp backend got unknown options: "
                             r"\['stall_timeout'\]"):
        run_graph(fig4_graph, DATA, [], backend="cgsim-mp",
                  stall_timeout=5.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_bogus_optimize_level_raises_everywhere(fig4_graph, backend):
    with pytest.raises(GraphRuntimeError, match="optimize level"):
        run_graph(fig4_graph, DATA, [], backend=backend, optimize="bogus")


def test_prepare_refuses_run_level_options(fig4_graph):
    with pytest.raises(GraphRuntimeError, match="retry"):
        get_backend("cgsim").prepare(fig4_graph, (DATA, []), retry=2)
    # The graph call operator is run_graph: it applies run-level options.
    assert fig4_graph(DATA, [], retry=2).completed


def test_serialized_call_matches_compiled_call():
    data = np.arange(64, dtype=np.float32)[::-1].copy()
    compiled, serialized = [], []
    BITONIC_GRAPH(data, compiled, optimize="fuse")
    BITONIC_GRAPH.serialized(data, serialized, optimize="fuse")
    assert len(compiled) == len(serialized) == 64
    assert np.asarray(compiled).tobytes() == np.asarray(serialized).tobytes()


def test_spec_is_frozen_and_validated_once():
    spec = bind_options("cgsim", {"capacity": 8, "on_error": "isolate"})
    assert (spec.capacity, spec.on_error, spec.optimize) == (8, "isolate",
                                                             "none")
    assert spec.timeout is None          # not a cgsim option
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.capacity = 4
    assert spec.to_json()["capacity"] == 8


@pytest.mark.parametrize("backend", ["cgsim", "cgsim-mp"])
def test_checkpoint_records_run_options(fig4_graph, tmp_path, backend):
    run_graph(fig4_graph, DATA, [], backend=backend, capacity=8,
              on_error="isolate",
              checkpoint={"dir": str(tmp_path), "at_end": True})
    (path,) = glob.glob(str(tmp_path / "*.ckpt.json"))
    options = Checkpoint.load(path).options
    assert options["capacity"] == 8
    assert options["on_error"] == "isolate"
