"""Every entry point finishes a run the same way.

``run_graph``, the compiled and serialized graph call operators,
``run_threaded`` and a bare ``get_backend(b).run(plan)`` all go through
:meth:`repro.exec.ExecutionBackend.run`, so each returns a correlation
id, the tracer's metrics under ``observe=True`` and the sampler's
report under ``profile="sample"`` on every backend it reaches.
"""

import pytest

from repro.apps import bitonic, datasets
from repro.exec import get_backend, run_graph
from repro.exec.spec import OPTIONS
from repro.x86sim import run_threaded

_DATA = datasets.bitonic_blocks(4).reshape(-1)
_G = bitonic.BITONIC_GRAPH


def _prepared(backend):
    def call(*io, **opts):
        b = get_backend(backend)
        return b.run(b.prepare(_G, io, **opts))
    return call


ENTRIES = [
    *[(f"run_graph[{b}]", b, lambda *io, _b=b, **o: run_graph(
        _G, *io, backend=_b, **o)) for b in sorted(OPTIONS["run_id"].cells)],
    ("compiled", "cgsim", lambda *io, **o: _G(*io, **o)),
    ("serialized", "cgsim", lambda *io, **o: _G.serialized(*io, **o)),
    ("run_threaded", "x86sim", lambda *io, **o: run_threaded(_G, *io, **o)),
    *[(f"backend.run[{b}]", b, _prepared(b))
      for b in sorted(OPTIONS["run_id"].cells)],
]
_IDS = [name for name, _b, _call in ENTRIES]


def _run(call, **opts):
    out = []
    result = call(_DATA, out, **opts)
    assert result.completed and len(out) == _DATA.size
    return result


@pytest.mark.parametrize("name,backend,call", ENTRIES, ids=_IDS)
def test_run_id_is_minted(name, backend, call):
    first, second = _run(call), _run(call)
    assert first.run_id and second.run_id and first.run_id != second.run_id


@pytest.mark.parametrize("name,backend,call", ENTRIES, ids=_IDS)
def test_observe_fills_trace_and_metrics(name, backend, call):
    result = _run(call, observe=True)
    assert result.trace is not None and result.trace.closed
    assert result.metrics is not None
    assert result.metrics.run_id == result.run_id
    assert all(ev.run == result.run_id for ev in result.trace.events)


@pytest.mark.parametrize("name,backend,call", ENTRIES, ids=_IDS)
def test_sampled_profile_is_reported(name, backend, call):
    if OPTIONS["profile"].cells[backend].action != "honoured":
        pytest.skip(f"{backend} does not sample")
    result = _run(call, profile="sample")
    assert result.profile is not None
