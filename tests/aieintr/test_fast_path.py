"""The no-recorder fast path of the intrinsic layer.

``emit`` is free while no recorder is active anywhere, recording stays
per thread, the constant lane tables are cached read-only, and the
integer ``sliding_mac`` equals the windowed int64 matmul it replaced.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import aieintr as aie
from repro.aieintr import tracing
from repro.aieintr.accum import Accum
from repro.aieintr.shuffle import _butterfly_index, butterfly_partner
from repro.aieintr.sortops import bitonic_stage_dirs
from repro.aieintr.tracing import TraceRecorder, active_recorder, emit


def _in_thread(fn):
    """Run *fn* on a fresh thread; re-raise anything it raised."""
    errors = []

    def body():
        try:
            fn()
        except BaseException as exc:  # pragma: no cover - re-raised below
            errors.append(exc)

    t = threading.Thread(target=body)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()
    if errors:
        raise errors[0]


class TestRecorderThreads:
    def test_recorder_ignores_other_threads(self):
        v = aie.iota(8, np.int32)
        with TraceRecorder() as rec:
            _in_thread(lambda: [v + v, v.min(v), emit("vadd", 8, 4)])
            _ = v * v
        assert [op.op for op in rec.ops] == ["vmul"]

    def test_other_thread_records_only_its_own(self):
        v = aie.iota(8, np.int32)
        entered, release = threading.Event(), threading.Event()
        captured = []

        def worker():
            with TraceRecorder() as rec:
                entered.set()
                release.wait(timeout=30)
                _ = v - v
            captured.extend(op.op for op in rec.ops)

        t = threading.Thread(target=worker)
        t.start()
        assert entered.wait(timeout=30)
        assert active_recorder() is None
        _ = v + v  # main thread: no recorder of its own
        release.set()
        t.join(timeout=30)
        assert captured == ["vsub"]
        assert tracing._active == 0

    def test_raising_body_restores_fast_path(self):
        with pytest.raises(ValueError):
            with TraceRecorder():
                emit("vadd", 8, 4)
                raise ValueError("kernel failed")
        assert tracing._active == 0
        assert active_recorder() is None
        emit("vmul", 8, 4)  # no recorder: nothing to capture it
        with TraceRecorder() as rec:
            emit("vsub", 8, 4)
        assert [op.op for op in rec.ops] == ["vsub"]
        assert tracing._active == 0

    def test_rejected_nested_recorder_leaves_count(self):
        with TraceRecorder() as outer:
            with pytest.raises(RuntimeError):
                with TraceRecorder():
                    pass
            emit("vmax", 4, 2)
            assert tracing._active == 1
        assert tracing._active == 0
        assert outer.counts == {"vmax": 1}

    def test_concurrent_recorders_stress(self):
        """More threads than cores enter and leave recorders with a tiny
        switch interval; a lost count update would leave ``_active``
        non-zero or drop a thread's own emits."""
        n_threads, rounds = 8, 200
        failures = []

        def worker(k):
            for _ in range(rounds):
                with TraceRecorder() as rec:
                    emit("vadd", k + 1, 4)
                    emit("vmul", k + 1, 4)
                if [(op.op, op.lanes) for op in rec.ops] != \
                        [("vadd", k + 1), ("vmul", k + 1)]:
                    failures.append(k)
                emit("vsub", 1, 4)  # between recorders: a no-op

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert failures == []
        assert tracing._active == 0

    def test_meta_still_recorded(self):
        with TraceRecorder() as rec:
            emit("stream_rd", 1, 4, port="x", dir="in")
        assert rec.ops[0].meta == (("dir", "in"), ("port", "x"))


class TestCachedTables:
    def test_stage_dirs_cached_read_only(self):
        m = bitonic_stage_dirs(16, 3, 1)
        assert m is bitonic_stage_dirs(16, 3, 1)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0] = not m[0]

    def test_butterfly_index_cached_read_only(self):
        idx = _butterfly_index(16, 4)
        assert idx is _butterfly_index(16, 4)
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0
        out = butterfly_partner(aie.iota(16, np.int32), 4)
        assert not np.shares_memory(out.data, idx)
        assert list(out) == list(np.arange(16) ^ 4)

    @pytest.mark.parametrize("distance", [0, -2, 3, 6, 16, 32])
    def test_bad_distance_raises_every_time(self, distance):
        v = aie.iota(16, np.int32)
        butterfly_partner(v, 8)  # a valid entry for the same width
        for _ in range(2):  # errors are never cached as results
            with pytest.raises(ValueError, match="butterfly distance"):
                butterfly_partner(v, distance)


def _windowed_reference(coeffs, data, out_lanes, start, step):
    windows = np.lib.stride_tricks.sliding_window_view(data, coeffs.shape[0])
    windows = windows[start:start + out_lanes * step:step]
    return windows.astype(np.int64) @ coeffs.astype(np.int64)


_INT_RANGE = {np.int16: (-(1 << 15), (1 << 15) - 1),
              np.int32: (-(1 << 31), (1 << 31) - 1)}


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    ddtype=st.sampled_from([np.int16, np.int32]),
    cdtype=st.sampled_from([np.int16, np.int32]),
    taps=st.sampled_from([2, 4, 8]),
    out_lanes=st.integers(1, 32),
    start=st.integers(0, 5),
    step=st.integers(1, 3),
    with_acc=st.booleans(),
)
def test_property_int_sliding_mac_matches_windowed_matmul(
        data, ddtype, cdtype, taps, out_lanes, start, step, with_acc):
    n = start + (out_lanes - 1) * step + taps + data.draw(st.integers(0, 3))
    lo, hi = _INT_RANGE[ddtype]
    d = np.array(data.draw(st.lists(st.integers(lo, hi), min_size=n,
                                    max_size=n)), dtype=ddtype)
    lo, hi = _INT_RANGE[cdtype]
    c = np.array(data.draw(st.lists(st.integers(lo, hi), min_size=taps,
                                    max_size=taps)), dtype=cdtype)
    kind = "acc80" if np.dtype(cdtype).itemsize >= 4 else "acc48"
    acc = None
    expected = _windowed_reference(c, d, out_lanes, start, step)
    if with_acc:
        a = np.array(data.draw(st.lists(st.integers(-(1 << 40), 1 << 40),
                                        min_size=out_lanes,
                                        max_size=out_lanes)), dtype=np.int64)
        acc = Accum(a, kind)
        expected = a + expected
    lim = 1 << 47
    if kind == "acc48" and (expected.max() >= lim or expected.min() < -lim):
        with pytest.raises(OverflowError, match="acc48"):
            aie.sliding_mac(acc, aie.vec(c), d, out_lanes, start, step)
        return
    out = aie.sliding_mac(acc, aie.vec(c), d, out_lanes, start, step)
    assert out.kind == kind
    assert out.data.dtype == np.int64
    assert np.array_equal(out.data, expected)


class TestIntegerSlidingMac:
    def test_acc48_overflow_guard_still_raises(self):
        taps = aie.vec([1, 1, 1, 1], dtype=np.int16)
        acc = Accum(np.full(4, (1 << 47) - 2, dtype=np.int64), "acc48")
        with pytest.raises(OverflowError, match="acc48"):
            aie.sliding_mac(acc, taps, np.ones(8, dtype=np.int16), 4)
        low = Accum(np.full(4, 2 - (1 << 47), dtype=np.int64), "acc48")
        with pytest.raises(OverflowError, match="acc48"):
            aie.sliding_mac(low, taps, np.full(8, -1, dtype=np.int16), 4)

    def test_overflow_guard_on_negative_side(self):
        acc = Accum(np.full(4, -(1 << 47), dtype=np.int64), "acc48")
        acc._check_range()  # exactly -2^47 is representable
        with pytest.raises(OverflowError, match="acc48"):
            Accum(acc.data - 1, "acc48")._check_range()

    def test_empty_accumulator_in_range(self):
        Accum(np.zeros(0, dtype=np.int64), "acc48")._check_range()

    def test_two_dimensional_data_rejected(self):
        taps = aie.vec([1, 1], dtype=np.int16)
        with pytest.raises(ValueError):
            aie.sliding_mul(taps, np.ones((8, 2), dtype=np.int16), 4)
