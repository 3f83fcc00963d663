"""JSON wire schema of the graph-as-a-service run server.

A *submission* is one JSON object posted to ``POST /runs``::

    {
      "graph": {...},              # SerializedGraph.to_json object, OR
      "app": "bitonic",            # a server-registered named graph
      "inputs": [...],             # one wire value per global input
      "options": {                 # RUN_OPTION_KEYS, e.g.
        "backend": "cgsim",
        "optimize": "fuse",
        "faults": [...],           # injection specs, see _parse_faults
      },
      "trace": true,               # retain events; /runs/<id>/trace
      "return_outputs": true       # embed encoded sink values in result
    }

Values cross the wire JSON-natively where possible; containers that
JSON cannot express carry a tag:

``{"__ndarray__": {"dtype": d, "shape": s, "data": flat}}``
    NumPy array.  Complex dtypes interleave ``[re, im]`` pairs in
    ``data``.  Round trips are bit-exact for every dtype the apps use
    (float32/float64 promote losslessly through JSON's float64).
``{"__complex__": [re, im]}``
    A python complex scalar.

Everything here is stdlib ``json`` + NumPy — no new dependencies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.serialize import SerializedGraph
from ..errors import CgsimError
from ..exec.spec import OPTIONS, bind_options

__all__ = [
    "WireError",
    "Submission",
    "encode_value",
    "decode_value",
    "parse_submission",
    "RUN_OPTION_KEYS",
]


class WireError(CgsimError):
    """Malformed or disallowed submission payload (HTTP 400)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


#: Run options a submission may set: the ``wire`` rows of the run-option
#: table (:mod:`repro.exec.spec`), plus ``backend``.
RUN_OPTION_KEYS = ("backend",) + tuple(
    n for n, o in OPTIONS.items() if o.wire)


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Encode one python/NumPy value into its JSON wire form."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            flat = np.ravel(value)
            data = np.empty(flat.size * 2, dtype=np.float64)
            data[0::2] = flat.real
            data[1::2] = flat.imag
            data_list = data.tolist()
        else:
            data_list = np.ravel(value).tolist()
        return {"__ndarray__": {
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "data": data_list,
        }}
    if isinstance(value, np.generic):
        return encode_value(value.item())
    if isinstance(value, complex):
        return {"__complex__": [value.real, value.imag]}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise WireError(
        f"cannot encode value of type {type(value).__name__} for the wire"
    )


def decode_value(obj: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            spec = obj["__ndarray__"]
            try:
                dtype = np.dtype(spec["dtype"])
                shape = tuple(int(s) for s in spec["shape"])
                data = spec["data"]
            except (KeyError, TypeError, ValueError) as exc:
                raise WireError(f"malformed __ndarray__ value: {exc}") from exc
            if dtype.kind == "c":
                flat = np.asarray(data, dtype=np.float64)
                if flat.size % 2:
                    raise WireError(
                        "complex __ndarray__ data must hold [re, im] pairs"
                    )
                arr = (flat[0::2] + 1j * flat[1::2]).astype(dtype)
            else:
                arr = np.asarray(data, dtype=dtype)
            try:
                return arr.reshape(shape)
            except ValueError as exc:
                raise WireError(f"__ndarray__ shape mismatch: {exc}") from exc
        if "__complex__" in obj:
            pair = obj["__complex__"]
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise WireError("__complex__ value must be [re, im]")
            return complex(float(pair[0]), float(pair[1]))
        return {k: decode_value(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [decode_value(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Fault-plan and retry parsing
# ---------------------------------------------------------------------------


def _parse_faults(specs: Any):
    """JSON fault specs -> :class:`repro.faults.FaultPlan`.

    Each entry is ``{"kind": ..., ...fields}``; supported kinds mirror
    the picklable subset of :mod:`repro.faults.plan` (``NetCorrupt``'s
    custom ``fn`` callbacks cannot cross the wire — the type-safe
    additive-zero default applies).
    """
    from ..faults import (
        FaultPlan, KernelFault, NetCorrupt, NetDrop, QueueFreeze,
        SourceDelay,
    )

    if specs is None:
        return None
    if not isinstance(specs, list):
        raise WireError("options.faults must be a list of injection specs")
    out: List[Any] = []
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict) or "kind" not in spec:
            raise WireError(
                f"options.faults[{i}] must be an object with a 'kind'"
            )
        kind = spec["kind"]
        try:
            if kind == "kernel":
                out.append(KernelFault(
                    kernel=str(spec["kernel"]),
                    at_resume=int(spec.get("at_resume", 1)),
                    message=str(spec.get("message", "")),
                ))
            elif kind == "corrupt":
                out.append(NetCorrupt(
                    net=str(spec["net"]),
                    every=int(spec.get("every", 1)),
                    offset=int(spec.get("offset", 0)),
                ))
            elif kind == "drop":
                out.append(NetDrop(
                    net=str(spec["net"]),
                    every=int(spec.get("every", 1)),
                    offset=int(spec.get("offset", 0)),
                ))
            elif kind == "freeze":
                rel = spec.get("release_after_gets")
                out.append(QueueFreeze(
                    net=str(spec["net"]),
                    after_puts=int(spec.get("after_puts", 1)),
                    release_after_gets=None if rel is None else int(rel),
                ))
            elif kind == "delay":
                out.append(SourceDelay(
                    input=str(spec["input"]),
                    every=int(spec.get("every", 2)),
                ))
            else:
                raise WireError(
                    f"options.faults[{i}]: unknown kind {kind!r}; expected "
                    f"kernel/corrupt/drop/freeze/delay"
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(
                f"options.faults[{i}] ({kind}): {exc}"
            ) from exc
    return FaultPlan(tuple(out))


def _parse_retry(spec: Any):
    from ..faults import RetryPolicy

    if spec is None or isinstance(spec, int):
        return spec       # the run-option table checks the count
    if isinstance(spec, dict):
        unknown = set(spec) - {"attempts", "backoff", "resume"}
        if unknown:
            raise WireError(
                f"unknown retry options: {sorted(unknown)}; allowed: "
                f"attempts, backoff, resume"
            )
        try:
            return RetryPolicy(
                attempts=int(spec.get("attempts", 2)),
                backoff=float(spec.get("backoff", 0.0)),
                resume=bool(spec.get("resume", False)),
            )
        except (TypeError, ValueError) as exc:
            raise WireError(f"options.retry: {exc}") from exc
    raise WireError(
        "options.retry must be an int attempt count or "
        '{"attempts": n, "backoff": s, "resume": bool}'
    )


def _parse_profile(prof: Any) -> Any:
    """The wire's profile rules on top of the table's: the output
    location is server policy (``config.profile_dir``), so no path
    escapes over the wire, and the sampling interval is bounded."""
    if isinstance(prof, dict):
        if "out" in prof:
            raise WireError("profile.out is server policy; allowed "
                            "profile options: mode, interval")
        iv = prof.get("interval", 0.001)
        if isinstance(iv, (int, float)) and not 0.0001 <= iv <= 1.0:
            raise WireError("profile.interval must be in [0.0001, 1.0] s")
    return prof


# ---------------------------------------------------------------------------
# Submission parsing
# ---------------------------------------------------------------------------


@dataclass
class Submission:
    """A validated run submission, ready for the scheduler."""

    graph: Any                      # carrier passed to run_graph
    graph_name: str
    inputs: List[Any]
    options: Dict[str, Any]         # backend-ready run options
    backend: str
    retry: Any = None               # RetryPolicy | int | None
    trace: bool = False
    return_outputs: bool = True
    label: str = ""
    n_outputs: int = 0
    raw_options: Dict[str, Any] = field(default_factory=dict)


def parse_submission(body: bytes, *, apps: Dict[str, Any],
                     allowed_backends: Tuple[str, ...],
                     default_on_error: str = "isolate",
                     max_body: Optional[int] = None) -> Submission:
    """Validate one ``POST /runs`` body into a :class:`Submission`.

    *apps* maps server-registered graph names to carriers
    (``CompiledGraph``/``SerializedGraph``); submissions referencing
    ``"app"`` resolve through it, submissions carrying ``"graph"`` are
    deserialized from the embedded SerializedGraph JSON object (their
    kernels must be registered in the server process — import the
    defining modules at startup).
    """
    if max_body is not None and len(body) > max_body:
        raise WireError(
            f"payload of {len(body)} bytes exceeds the server's "
            f"{max_body}-byte limit", status=413,
        )
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"body is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise WireError("submission must be a JSON object")

    unknown = set(doc) - {"graph", "app", "inputs", "options", "trace",
                          "return_outputs", "label"}
    if unknown:
        raise WireError(f"unknown submission fields: {sorted(unknown)}")

    # -- graph -------------------------------------------------------------
    if ("graph" in doc) == ("app" in doc):
        raise WireError("submission needs exactly one of 'graph' or 'app'")
    if "app" in doc:
        name = doc["app"]
        carrier = apps.get(name)
        if carrier is None:
            raise WireError(
                f"unknown app {name!r}; served apps: {sorted(apps)}",
                status=404,
            )
        graph_name = name
    else:
        spec = doc["graph"]
        if isinstance(spec, dict):
            spec = json.dumps(spec)
        elif not isinstance(spec, str):
            raise WireError(
                "'graph' must be a SerializedGraph JSON object or string"
            )
        try:
            carrier = SerializedGraph.from_json(spec)
        except CgsimError as exc:
            raise WireError(f"bad serialized graph: {exc}") from exc
        graph_name = carrier.name

    # Resolving validates kernel registry keys up front (a submission
    # naming kernels this server never imported fails at admission, not
    # inside a worker) and tells us the I/O arity.
    from ..exec import resolve_graph

    try:
        resolved = resolve_graph(carrier)
    except CgsimError as exc:
        raise WireError(f"graph does not resolve on this server: {exc}")

    # -- inputs ------------------------------------------------------------
    inputs_doc = doc.get("inputs", [])
    if not isinstance(inputs_doc, list):
        raise WireError("'inputs' must be a list (one entry per graph input)")
    if len(inputs_doc) != len(resolved.inputs):
        raise WireError(
            f"graph {graph_name!r} has {len(resolved.inputs)} input(s); "
            f"submission carries {len(inputs_doc)}"
        )
    inputs = [decode_value(v) for v in inputs_doc]

    # -- options -----------------------------------------------------------
    opts_doc = doc.get("options", {})
    if not isinstance(opts_doc, dict):
        raise WireError("'options' must be an object")
    unknown = set(opts_doc) - set(RUN_OPTION_KEYS)
    if unknown:
        raise WireError(
            f"unknown run options: {sorted(unknown)}; allowed: "
            f"{list(RUN_OPTION_KEYS)}"
        )

    backend = opts_doc.get("backend", "cgsim")
    if backend not in allowed_backends:
        raise WireError(
            f"backend {backend!r} not served; allowed: "
            f"{list(allowed_backends)}", status=403,
        )
    # Wire-only rules; every value is then checked by the run-option
    # table, against the chosen backend's column.
    options = {k: v for k, v in opts_doc.items()
               if k not in ("backend", "retry")}
    options.setdefault("on_error", default_on_error)
    workers = options.get("workers", 1)
    if isinstance(workers, int) and workers > 16:
        # Bounded so a tenant cannot ask the service to fork an
        # arbitrary process count.
        raise WireError("workers must be an integer in [1, 16]")
    if "faults" in options:
        options["faults"] = _parse_faults(options["faults"])
    if "profile" in options:
        options["profile"] = _parse_profile(options["profile"])
    retry = _parse_retry(opts_doc.get("retry"))
    try:
        bind_options(backend, dict(options, retry=retry))
    except (CgsimError, TypeError, ValueError) as exc:
        raise WireError(str(exc)) from exc
    trace = bool(doc.get("trace", False))
    label = str(doc.get("label", ""))

    return Submission(
        graph=carrier,
        graph_name=graph_name,
        inputs=inputs,
        options=options,
        backend=backend,
        retry=retry,
        trace=trace,
        return_outputs=bool(doc.get("return_outputs", True)),
        label=label,
        n_outputs=len(resolved.outputs),
        raw_options=dict(opts_doc),
    )
