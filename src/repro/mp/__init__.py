"""repro.mp — sharded multi-process execution (the ``cgsim-mp`` backend).

FireSim splits simulation into a *manager* that places partitions onto a
*run farm* of workers; this package is the analog for compute graphs.
The graph is partitioned (reusing the extractor's realm partitioner,
§4.3), each shard runs the ordinary cooperative cgsim runtime in its own
OS process, and boundary nets are carried over shared-memory byte rings
(:class:`~repro.mp.shm_ring.ShmRing`) using the same batched bulk-ring
operations as the in-process transport.

Layers
------
``shm_ring``
    The cross-process SPSC transport (registered as ``"shm"`` in the
    :mod:`repro.core.transport` registry).
``codec``
    ``pack_values``: a worker's sink run of numpy numeric scalars
    crosses back to the manager as one typed ndarray.
``placement``
    Realm-aware shard placement with an acyclic worker quotient graph.
``worker``
    The per-process shard runtime: local cgsim scheduler + ring pumps.
``manager``
    The run manager: forks workers, monitors liveness, merges observe
    traces, applies worker-death containment, assembles the result.
``backend``
    The :class:`~repro.exec.api.ExecutionBackend` adapter
    (``backend="cgsim-mp"``).
"""

from .manager import ShardRun, WorkerCrashError, run_sharded
from .placement import Placement, place_graph
from .shm_ring import ShmRing

__all__ = [
    "CgsimMpBackend",
    "Placement",
    "ShardRun",
    "ShmRing",
    "WorkerCrashError",
    "place_graph",
    "run_sharded",
]


def __getattr__(name):
    # Deferred: repro.exec imports .backend to register "cgsim-mp", and
    # .backend imports repro.exec for the ExecutionBackend ABC.  Loading
    # it lazily here keeps `import repro.mp` cycle-free regardless of
    # which package is imported first.
    if name == "CgsimMpBackend":
        from .backend import CgsimMpBackend

        return CgsimMpBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
