"""Versioned on-disk checkpoint format.

A checkpoint is a *logical* snapshot of a run taken at a quiescent
point (no kernel mid-step — the cooperative scheduler only switches
between coroutine steps, so every context switch is a consistent cut).
It records **delivered progress**, not coroutine frames:

* per-sink delivered prefixes (bit-exact via the tagged ndarray codec
  shared with :mod:`repro.serve.wire`) plus a SHA-256 digest of each
  prefix,
* per-source consumed counts,
* RTP latch values,
* the fault-plan position (every fault event fired so far),
* diagnostic queue fills and scheduler step count,
* the structural digest of the graph it belongs to.

Resume (:mod:`repro.checkpoint.resume`) is deterministic re-execution:
kernels rebuild their internal state (IIR accumulators, sort networks)
by replaying from the original inputs, the re-run's prefix is verified
against the recorded digests, and already-fired ``KernelFault``
injections are suppressed so a retry completes.  This sidesteps the
one thing a coroutine-frame snapshot cannot do — move between
backends: the same checkpoint resumes on cgsim, pysim, cgsim-mp, or
x86sim, because logical progress is backend-independent.

Files are written atomically (temp + ``os.replace``) and carry a
schema version plus a whole-file SHA-256 checksum, so a crash while
checkpointing can never leave a checkpoint that loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..errors import CheckpointError

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointInfo",
    "SinkSnapshot",
    "graph_digest",
    "prefix_digest",
    "snapshot_rtp",
    "snapshot_sink",
    "value_digest",
]

#: Current schema version of the on-disk checkpoint format.  Bump on
#: any incompatible layout change; ``Checkpoint.load`` rejects files
#: from a different schema with a clear error instead of misreading.
CHECKPOINT_SCHEMA_VERSION = 1

_CHECKSUM_KEY = "checksum"
_MAGIC_KEY = "__cgsim_checkpoint__"


def _canonical(payload: Any) -> str:
    """Canonical JSON used for both checksums and digests."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def graph_digest(graph: Any) -> str:
    """Structural SHA-1 of a graph (same keying as the plan cache).

    Accepts a :class:`~repro.core.graph.ComputeGraph`, a
    :class:`~repro.core.builder.CompiledGraph`, or a
    :class:`~repro.core.serialize.SerializedGraph`.
    """
    from ..core.builder import CompiledGraph
    from ..core.graph import ComputeGraph
    from ..core.serialize import SerializedGraph, flatten_graph

    if isinstance(graph, CompiledGraph):
        serialized = graph.serialized
    elif isinstance(graph, SerializedGraph):
        serialized = graph
    elif isinstance(graph, ComputeGraph):
        serialized = flatten_graph(graph)
    else:
        raise CheckpointError(
            f"cannot digest graph carrier of type {type(graph).__name__}"
        )
    return hashlib.sha1(serialized.to_json().encode("utf-8")).hexdigest()


def value_digest(value: Any) -> str:
    """SHA-256 over the canonical wire encoding of any codec-safe value.

    Uses the serve-layer value codec, which is bit-exact for every
    dtype the apps produce (ints, floats, complex, ndarray windows).
    """
    from ..serve.wire import encode_value

    return hashlib.sha256(
        _canonical(encode_value(value)).encode("utf-8")
    ).hexdigest()


def prefix_digest(elements: Sequence[Any]) -> str:
    """SHA-256 over the canonical wire encoding of a sink prefix."""
    return value_digest(list(elements))


@dataclass
class SinkSnapshot:
    """Delivered prefix of one graph output at capture time."""

    io_index: int
    #: "list" for python-list sinks, "array" for ndarray sinks,
    #: "rtp" for RuntimeParam outputs (``delivered`` is 0 or 1).
    kind: str
    delivered: int
    digest: str
    #: Wire-encoded prefix elements ("rtp": the single latched value).
    data: Any

    def to_dict(self) -> Dict[str, Any]:
        return {
            "io_index": self.io_index,
            "kind": self.kind,
            "delivered": self.delivered,
            "digest": self.digest,
            "data": self.data,
        }

    @staticmethod
    def from_dict(obj: Dict[str, Any]) -> "SinkSnapshot":
        return SinkSnapshot(
            io_index=int(obj["io_index"]),
            kind=str(obj["kind"]),
            delivered=int(obj["delivered"]),
            digest=str(obj.get("digest", "")),
            data=obj.get("data"),
        )


def snapshot_sink(io_index: int, container: Any, items: int,
                  dtype: Any) -> SinkSnapshot:
    """Snapshot the first *items* stream items a bound sink container
    holds (a list, or an ndarray filled through
    :class:`~repro.core.sources_sinks.ArraySinkCursor`, where a window
    stream item is ``dtype.count`` elements).  The data is copied and
    encoded, so later run progress cannot mutate the snapshot."""
    from ..core.dtypes import WindowType
    from ..serve.wire import encode_value

    if isinstance(container, list):
        data = list(container[:items]) if items else []
        return SinkSnapshot(
            io_index=io_index, kind="list", delivered=len(data),
            digest=prefix_digest(data), data=encode_value(data),
        )
    per_item = dtype.count if isinstance(dtype, WindowType) else 1
    flat = container.reshape(-1)[: items * per_item].copy()
    return SinkSnapshot(
        io_index=io_index, kind="array", delivered=items,
        digest=value_digest(flat), data=encode_value(flat),
    )


def snapshot_rtp(io_index: int, value: Any) -> SinkSnapshot:
    """Snapshot an RTP output's latched *value* (``None``: never set)."""
    from ..serve.wire import encode_value

    if value is None:
        return SinkSnapshot(io_index=io_index, kind="rtp", delivered=0,
                            digest="", data=None)
    return SinkSnapshot(io_index=io_index, kind="rtp", delivered=1,
                        digest=value_digest(value),
                        data=encode_value(value))


@dataclass
class CheckpointInfo:
    """Lightweight summary attached to run reports and results."""

    last: str = ""
    reason: str = ""
    count: int = 0
    paths: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "last": self.last,
            "reason": self.reason,
            "count": self.count,
            "paths": list(self.paths),
        }


@dataclass
class Checkpoint:
    """One captured run state.  See the module docstring for the model."""

    graph_name: str
    graph_digest: str
    backend: str = ""
    run_id: str = ""
    reason: str = "explicit"
    seq: int = 0
    #: Scheduler context switches at capture (-1 when not applicable,
    #: e.g. a cgsim-mp worker-death checkpoint taken by the manager).
    step: int = -1
    items_in: int = 0
    items_out: int = 0
    sinks: List[SinkSnapshot] = field(default_factory=list)
    #: Per-input-io consumed element counts: ``{io_index: n}``.
    sources: Dict[int, int] = field(default_factory=dict)
    #: Fault-plan position: every fault-session event fired so far.
    fired_faults: List[Dict[str, Any]] = field(default_factory=list)
    #: Diagnostic only — queue fills at capture (never restored).
    queue_fills: Dict[str, int] = field(default_factory=dict)
    #: Sanitized run options of the original run (diagnostic).
    options: Dict[str, Any] = field(default_factory=dict)
    schema: int = CHECKPOINT_SCHEMA_VERSION
    wall_ts: float = 0.0

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "graph_name": self.graph_name,
            "graph_digest": self.graph_digest,
            "backend": self.backend,
            "run_id": self.run_id,
            "reason": self.reason,
            "seq": self.seq,
            "step": self.step,
            "items_in": self.items_in,
            "items_out": self.items_out,
            "sinks": [s.to_dict() for s in self.sinks],
            "sources": {str(k): int(v) for k, v in self.sources.items()},
            "fired_faults": list(self.fired_faults),
            "queue_fills": dict(self.queue_fills),
            "options": dict(self.options),
            "wall_ts": self.wall_ts,
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "Checkpoint":
        schema = int(payload.get("schema", -1))
        if schema != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint schema {schema} "
                f"(this build reads schema {CHECKPOINT_SCHEMA_VERSION})"
            )
        return Checkpoint(
            graph_name=str(payload.get("graph_name", "")),
            graph_digest=str(payload.get("graph_digest", "")),
            backend=str(payload.get("backend", "")),
            run_id=str(payload.get("run_id", "")),
            reason=str(payload.get("reason", "")),
            seq=int(payload.get("seq", 0)),
            step=int(payload.get("step", -1)),
            items_in=int(payload.get("items_in", 0)),
            items_out=int(payload.get("items_out", 0)),
            sinks=[SinkSnapshot.from_dict(s) for s in payload.get("sinks", [])],
            sources={int(k): int(v)
                     for k, v in payload.get("sources", {}).items()},
            fired_faults=list(payload.get("fired_faults", [])),
            queue_fills={str(k): int(v)
                         for k, v in payload.get("queue_fills", {}).items()},
            options=dict(payload.get("options", {})),
            schema=schema,
            wall_ts=float(payload.get("wall_ts", 0.0)),
        )

    # -- atomic file I/O --------------------------------------------------

    def save(self, path: Any) -> str:
        """Atomically write this checkpoint to ``path``.

        The file is a single JSON document carrying a magic marker, the
        payload, and a SHA-256 checksum over the canonical payload
        encoding.  Written to ``<path>.tmp`` then ``os.replace``d, so
        readers never observe a partial file.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = self.to_payload()
        doc = {
            _MAGIC_KEY: 1,
            "payload": payload,
            _CHECKSUM_KEY: hashlib.sha256(
                _canonical(payload).encode("utf-8")
            ).hexdigest(),
        }
        tmp = target.with_name(target.name + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                json.dump(doc, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {target}: {exc}"
            ) from exc
        return str(target)

    @staticmethod
    def load(path: Any) -> "Checkpoint":
        """Load and verify a checkpoint file.

        Raises :class:`CheckpointError` on missing/corrupt files,
        checksum mismatch, or an unsupported schema version.
        """
        target = Path(path)
        try:
            text = target.read_text(encoding="utf-8")
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {target}: {exc}"
            ) from exc
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint {target} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(doc, dict) or _MAGIC_KEY not in doc:
            raise CheckpointError(
                f"{target} is not a cgsim checkpoint file"
            )
        payload = doc.get("payload")
        if not isinstance(payload, dict):
            raise CheckpointError(f"checkpoint {target} has no payload")
        expect = doc.get(_CHECKSUM_KEY, "")
        actual = hashlib.sha256(
            _canonical(payload).encode("utf-8")
        ).hexdigest()
        if actual != expect:
            raise CheckpointError(
                f"checkpoint {target} failed checksum verification "
                "(truncated or corrupted file)"
            )
        return Checkpoint.from_payload(payload)

    # -- convenience ------------------------------------------------------

    def decoded_sink(self, snap: SinkSnapshot) -> List[Any]:
        """Decode one sink snapshot's prefix back to python/NumPy values."""
        from ..serve.wire import decode_value

        data = snap.data if snap.data is not None else []
        return [decode_value(v) for v in data]

    def summary(self) -> Dict[str, Any]:
        """JSON-safe one-screen summary (used by the inspect CLI)."""
        return {
            "schema": self.schema,
            "graph": self.graph_name,
            "graph_digest": self.graph_digest,
            "backend": self.backend,
            "run_id": self.run_id,
            "reason": self.reason,
            "seq": self.seq,
            "step": self.step,
            "items_in": self.items_in,
            "items_out": self.items_out,
            "sinks": [
                {"io_index": s.io_index, "kind": s.kind,
                 "delivered": s.delivered, "digest": s.digest[:12]}
                for s in self.sinks
            ],
            "sources": {str(k): v for k, v in self.sources.items()},
            "fired_faults": len(self.fired_faults),
            "wall_ts": self.wall_ts,
        }


def fresh_timestamp() -> float:
    """Wall-clock stamp for new checkpoints (isolated for testability)."""
    return time.time()


def default_checkpoint_name(run_id: str, seq: int) -> str:
    """Canonical file name for the ``seq``-th checkpoint of a run."""
    safe = run_id if run_id else "run"
    return f"ckpt_{safe}_{seq:04d}.ckpt.json"


def latest_checkpoint(directory: Any,
                      run_id: Optional[str] = None) -> Optional[str]:
    """Path of the newest checkpoint file in ``directory`` (by sequence
    number embedded in the canonical name), or ``None`` if none exist.
    Filters to one run when ``run_id`` is given."""
    root = Path(directory)
    if not root.is_dir():
        return None
    pattern = (f"ckpt_{run_id}_*.ckpt.json"
               if run_id else "ckpt_*.ckpt.json")
    candidates = sorted(root.glob(pattern))
    return str(candidates[-1]) if candidates else None
