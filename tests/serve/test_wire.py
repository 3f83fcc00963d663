"""Wire codec round-trips and submission-parsing validation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve import WireError, decode_value, encode_value, parse_submission
from repro.serve.service import DEFAULT_BACKENDS, default_apps


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------


class TestValueCodec:
    @pytest.mark.parametrize("arr", [
        np.arange(48, dtype=np.float32),
        np.linspace(-1, 1, 33, dtype=np.float64),
        np.arange(24, dtype=np.int32).reshape(2, 3, 4),
        (np.arange(8) + 1j * np.arange(8, 0, -1)).astype(np.complex128),
        np.zeros((3, 0), dtype=np.float32),
    ])
    def test_ndarray_round_trip_bit_exact(self, arr):
        # Through actual JSON text, as on the wire.
        back = decode_value(json.loads(json.dumps(encode_value(arr))))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_complex64_round_trip(self):
        arr = (np.arange(6).reshape(2, 3) * (1 - 2j)).astype(np.complex64)
        back = decode_value(encode_value(arr))
        assert back.dtype == np.complex64
        assert np.array_equal(back, arr)

    def test_scalars_and_containers(self):
        value = {
            "mu": 3,
            "z": complex(1.5, -2.5),
            "nested": [1, 2.5, "s", None, True,
                       np.float32(0.25), [complex(0, 1)]],
        }
        back = decode_value(json.loads(json.dumps(encode_value(value))))
        assert back["mu"] == 3
        assert back["z"] == complex(1.5, -2.5)
        assert back["nested"][:5] == [1, 2.5, "s", None, True]
        assert back["nested"][5] == 0.25
        assert back["nested"][6] == [complex(0, 1)]

    def test_unencodable_rejected(self):
        with pytest.raises(WireError):
            encode_value(object())

    def test_malformed_ndarray_rejected(self):
        with pytest.raises(WireError):
            decode_value({"__ndarray__": {"dtype": "float32"}})
        with pytest.raises(WireError):
            decode_value({"__ndarray__": {
                "dtype": "float32", "shape": [7], "data": [1, 2]}})
        with pytest.raises(WireError):
            decode_value({"__ndarray__": {
                "dtype": "complex128", "shape": [1], "data": [1.0]}})

    def test_malformed_complex_rejected(self):
        with pytest.raises(WireError):
            decode_value({"__complex__": [1.0]})


# ---------------------------------------------------------------------------
# Submission parsing
# ---------------------------------------------------------------------------


def _parse(doc, **kw):
    kw.setdefault("apps", default_apps())
    kw.setdefault("allowed_backends", DEFAULT_BACKENDS)
    return parse_submission(json.dumps(doc).encode("utf-8"), **kw)


def _bitonic_doc(**over):
    doc = {
        "app": "bitonic",
        "inputs": [encode_value(np.arange(16, dtype=np.float32))],
    }
    doc.update(over)
    return doc


class TestParseSubmission:
    def test_minimal_app_submission(self):
        sub = _parse(_bitonic_doc())
        assert sub.graph_name == "bitonic"
        assert sub.backend == "cgsim"
        assert sub.n_outputs == 1
        assert sub.options["on_error"] == "isolate"
        assert isinstance(sub.inputs[0], np.ndarray)

    def test_serialized_graph_submission(self):
        from conftest import build_adder_graph

        ser = build_adder_graph().serialized
        sub = _parse({
            "graph": json.loads(ser.to_json()),
            "inputs": [encode_value(np.ones(4, dtype=np.float32))] * 2,
        })
        assert sub.graph_name == "adder_graph"
        assert sub.n_outputs == 1
        assert len(sub.inputs) == 2

    def test_not_json(self):
        with pytest.raises(WireError):
            parse_submission(b"{nope", apps={},
                             allowed_backends=DEFAULT_BACKENDS)

    def test_non_object_body(self):
        with pytest.raises(WireError):
            parse_submission(b"[1, 2]", apps={},
                             allowed_backends=DEFAULT_BACKENDS)

    def test_unknown_field(self):
        with pytest.raises(WireError, match="unknown submission fields"):
            _parse(_bitonic_doc(bogus=1))

    def test_graph_and_app_exclusive(self):
        with pytest.raises(WireError, match="exactly one"):
            _parse(_bitonic_doc(graph={}))
        with pytest.raises(WireError, match="exactly one"):
            _parse({"inputs": []})

    def test_unknown_app_is_404(self):
        with pytest.raises(WireError) as ei:
            _parse({"app": "nope", "inputs": []})
        assert ei.value.status == 404

    def test_input_arity_checked(self):
        with pytest.raises(WireError, match="1 input"):
            _parse({"app": "bitonic", "inputs": []})

    def test_unknown_option(self):
        with pytest.raises(WireError, match="unknown run options"):
            _parse(_bitonic_doc(options={"frobnicate": 1}))

    def test_disallowed_backend_is_403(self):
        with pytest.raises(WireError) as ei:
            _parse(_bitonic_doc(options={"backend": "cgsim-mp"}))
        assert ei.value.status == 403

    def test_bad_optimize_level(self):
        with pytest.raises(WireError, match="optimize"):
            _parse(_bitonic_doc(options={"optimize": "mega"}))

    def test_bad_on_error(self):
        with pytest.raises(WireError, match="on_error"):
            _parse(_bitonic_doc(options={"on_error": "explode"}))

    @pytest.mark.parametrize("key", ["capacity", "batch_io", "max_steps"])
    def test_positive_int_options(self, key):
        sub = _parse(_bitonic_doc(options={key: 8}))
        assert sub.options[key] == 8
        for bad in (0, -1, 1.5, "8", True):
            with pytest.raises(WireError):
                _parse(_bitonic_doc(options={key: bad}))

    @pytest.mark.parametrize("options,name", [
        ({"backend": "cgsim", "timeout": 5}, "timeout"),
        ({"backend": "cgsim", "workers": 2}, "workers"),
        ({"backend": "x86sim", "batch_io": 8}, "batch_io"),
        ({"backend": "x86sim", "max_steps": 1000}, "max_steps"),
    ])
    def test_backend_unsupported_option_is_400(self, options, name):
        with pytest.raises(WireError) as ei:
            _parse(_bitonic_doc(options=options))
        assert ei.value.status == 400
        assert options["backend"] in str(ei.value)
        assert name in str(ei.value)

    @pytest.mark.parametrize("options", [
        {"backend": "x86sim", "optimize": "fuse"},
        {"backend": "x86sim", "watchdog": 5.0},
    ])
    def test_backend_ignored_option_is_admitted(self, options):
        sub = _parse(_bitonic_doc(options=options))
        assert sub.backend == "x86sim"

    def test_allowlist_comes_from_the_run_option_table(self):
        from repro.exec.spec import OPTIONS
        from repro.serve.wire import RUN_OPTION_KEYS

        assert set(RUN_OPTION_KEYS) == {"backend"} | {
            n for n, o in OPTIONS.items() if o.wire}

    def test_retry_forms(self):
        from repro.faults import RetryPolicy

        assert _parse(_bitonic_doc(options={"retry": 3})).retry == 3
        pol = _parse(_bitonic_doc(
            options={"retry": {"attempts": 2, "backoff": 0.1}})).retry
        assert isinstance(pol, RetryPolicy)
        assert pol.attempts == 2
        for bad in (0, True, "2"):
            with pytest.raises(WireError):
                _parse(_bitonic_doc(options={"retry": bad}))

    def test_fault_specs(self):
        from repro.faults import (
            FaultPlan, KernelFault, NetCorrupt, NetDrop, QueueFreeze,
            SourceDelay,
        )

        sub = _parse(_bitonic_doc(options={"faults": [
            {"kind": "kernel", "kernel": "k_0", "at_resume": 2},
            {"kind": "corrupt", "net": "n", "every": 3},
            {"kind": "drop", "net": "n", "offset": 1},
            {"kind": "freeze", "net": "n", "after_puts": 4,
             "release_after_gets": 2},
            {"kind": "delay", "input": "samples"},
        ]}))
        plan = sub.options["faults"]
        assert isinstance(plan, FaultPlan)
        kinds = [type(f) for f in plan.injections]
        assert kinds == [KernelFault, NetCorrupt, NetDrop, QueueFreeze,
                         SourceDelay]
        assert plan.injections[0].at_resume == 2

    def test_bad_fault_specs(self):
        with pytest.raises(WireError, match="unknown kind"):
            _parse(_bitonic_doc(options={"faults": [{"kind": "meteor"}]}))
        with pytest.raises(WireError):
            _parse(_bitonic_doc(options={"faults": [{"no_kind": 1}]}))
        with pytest.raises(WireError):
            _parse(_bitonic_doc(options={"faults": {"kind": "kernel"}}))

    def test_oversize_body_is_413(self):
        body = json.dumps(_bitonic_doc()).encode("utf-8")
        with pytest.raises(WireError) as ei:
            parse_submission(body, apps=default_apps(),
                             allowed_backends=DEFAULT_BACKENDS,
                             max_body=10)
        assert ei.value.status == 413
