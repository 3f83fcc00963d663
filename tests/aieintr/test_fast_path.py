"""The fast paths of the intrinsic layer.

``emit`` is free while no recorder is active anywhere, recording stays
per thread, the constant lane tables are cached read-only, and the
integer ``sliding_mac`` equals the windowed int64 matmul it replaced.

Each rewritten intrinsic is also checked against a frozen copy of the
body it replaced (kept here only, as the reference): same values, dtype
and bytes, or the same exception type; and the wrapping vector ops
override only numpy's ``over`` error state.
"""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import aieintr as aie
from repro.aieintr import tracing
from repro.aieintr.accum import Accum
from repro.aieintr.fixedpoint import RoundMode, round_shift, saturate
from repro.aieintr.shuffle import _butterfly_index, butterfly_partner, reverse
from repro.aieintr.sortops import (
    bitonic_sort_vector,
    bitonic_stage_dirs,
    compare_exchange,
)
from repro.aieintr.tracing import TraceRecorder, active_recorder, emit
from repro.aieintr.vector import VALID_LANES, AieVector


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


# ---------------------------------------------------------------------------
# Frozen copies of the replaced bodies (references only; not in src/)
# ---------------------------------------------------------------------------


def _frozen_sliding_mac(acc, coeffs, data, out_lanes, start=0, step=1):
    """``sliding_mac`` as it was: per-tap loop, sliding_window_view."""
    taps = coeffs.lanes
    d = np.asarray(data)
    need = start + (out_lanes - 1) * step + taps
    if d.shape[0] < need:
        raise ValueError("short")
    if d.ndim != 1:
        raise ValueError("ndim")
    if np.iscomplexobj(d) or np.iscomplexobj(coeffs.data):
        raise TypeError("complex")
    is_float = np.issubdtype(coeffs.dtype, np.floating) or np.issubdtype(
        d.dtype, np.floating
    )
    if is_float:
        windows = np.lib.stride_tricks.sliding_window_view(d, taps)[
            start:start + out_lanes * step:step
        ]
        res = windows @ coeffs.data
        base = acc.data if acc is not None else 0
        kind = "accfloat"
        data_out = (base + res).astype(np.float32)
    else:
        span = (out_lanes - 1) * step + 1
        x = d[start:need].astype(np.int64, copy=False)
        res = np.zeros(out_lanes, dtype=np.int64)
        for k, c in enumerate(coeffs.data.astype(np.int64).tolist()):
            res += c * x[k:k + span:step]
        base = acc.data if acc is not None else np.int64(0)
        kind = acc.kind if acc is not None else (
            "acc80" if coeffs.ebytes >= 4 else "acc48"
        )
        data_out = base + res
    out = Accum(data_out, kind)
    if not out.is_float:
        out._check_range()
    return out


def _frozen_round_shift(values, shift, mode=RoundMode.NEAREST):
    v = np.asarray(values, dtype=np.int64)
    if shift < 0:
        raise ValueError("shift")
    if shift == 0:
        return v.copy()
    if mode == RoundMode.FLOOR:
        return v >> shift
    half = np.int64(1) << (shift - 1)
    if mode == RoundMode.NEAREST:
        adj = np.where(v >= 0, half, half - 1)
        return (v + adj) >> shift
    if mode == RoundMode.EVEN:
        q = v >> shift
        rem = v - (q << shift)
        tie = rem == half
        up = (rem > half) | (tie & ((q & 1) == 1))
        return q + up.astype(np.int64)
    raise ValueError("mode")


_FROZEN_LIMITS = {
    np.dtype(np.int8): (-(1 << 7), (1 << 7) - 1),
    np.dtype(np.int16): (-(1 << 15), (1 << 15) - 1),
    np.dtype(np.int32): (-(1 << 31), (1 << 31) - 1),
    np.dtype(np.int64): (-(1 << 63), (1 << 63) - 1),
}


def _frozen_saturate(values, dtype):
    dt = np.dtype(dtype)
    try:
        lo, hi = _FROZEN_LIMITS[dt]
    except KeyError:
        raise ValueError("dtype") from None
    return np.clip(values, lo, hi).astype(dt)


def _frozen_push(v, value):
    data = v.data
    emit("vshift_elem", data.shape[0], data.itemsize)
    out = np.empty_like(data)
    out[1:] = data[:-1]
    out[0] = value
    return AieVector(out, _trusted=True)


def _frozen_compare_exchange(v, distance, keep_min_mask):
    partner = butterfly_partner(v, distance)
    lo = v.min(partner)
    hi = v.max(partner)
    emit("vsel", v.data.shape[0], v.data.itemsize)
    out = np.where(np.asarray(keep_min_mask, dtype=bool), lo.data, hi.data)
    return AieVector(out, _trusted=True)


def _outcome(fn, *args):
    """``("ok", result)`` or ``("raise", exception type)``; a warning
    counts as raising, so a new overflow warning is a difference."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return "ok", fn(*args)
    except Exception as exc:  # compared by type below
        return "raise", type(exc)


def _assert_same_array(new, old):
    assert type(new) is type(old)
    assert new.dtype == old.dtype
    assert np.shape(new) == np.shape(old)
    assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


def _assert_same_outcome(new, old):
    assert new[0] == old[0], (new, old)
    if new[0] == "raise":
        assert new[1] is old[1]
        return
    a, b = new[1], old[1]
    if isinstance(b, Accum):
        assert isinstance(a, Accum) and a.kind == b.kind
        a, b = a.data, b.data
    elif isinstance(b, AieVector):
        assert isinstance(a, AieVector)
        assert not a.data.flags.writeable
        a, b = a.data, b.data
    _assert_same_array(a, b)


# ---------------------------------------------------------------------------
# sliding_mac
# ---------------------------------------------------------------------------

_INT_DATA = [np.int8, np.int16, np.int32, np.int64,
             np.uint8, np.uint16, np.uint32, np.uint64]


def _ints(data, dtype, n, extremes=False):
    info = np.iinfo(dtype)
    lo, hi = (info.min, info.max) if extremes else (
        max(info.min, -(1 << 15)), min(info.max, 1 << 15))
    return np.array(data.draw(st.lists(st.integers(lo, hi), min_size=n,
                                       max_size=n)), dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    ddtype=st.sampled_from(_INT_DATA),
    cdtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
    taps=st.sampled_from([2, 4, 8, 16]),
    out_lanes=st.integers(1, 24),
    start=st.integers(0, 6),
    step=st.integers(1, 4),
    acc_kind=st.sampled_from([None, "acc48", "acc80"]),
    extremes=st.booleans(),
    slack=st.integers(-1, 3),
)
def test_property_int_sliding_mac_matches_frozen_loop(
        data, ddtype, cdtype, taps, out_lanes, start, step, acc_kind,
        extremes, slack):
    """Every integer width, signed and unsigned; int64 extremes that
    wrap; steps 1-4, nonzero start, short data; acc48/acc80 or none."""
    n = max(0, start + (out_lanes - 1) * step + taps + slack)
    d = _ints(data, ddtype, n, extremes)
    coeffs = aie.vec(_ints(data, cdtype, taps, extremes))
    acc = None
    if acc_kind is not None:
        bound = (1 << 46) if acc_kind == "acc48" else (1 << 62)
        acc = Accum(np.array(data.draw(st.lists(
            st.integers(-bound, bound), min_size=out_lanes,
            max_size=out_lanes)), dtype=np.int64), acc_kind)
    _assert_same_outcome(
        _outcome(aie.sliding_mac, acc, coeffs, d, out_lanes, start, step),
        _outcome(_frozen_sliding_mac, acc, coeffs, d, out_lanes, start,
                 step))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    ddtype=st.sampled_from([np.float32, np.float64, np.int16]),
    cdtype=st.sampled_from([np.float32, np.float64, np.int16]),
    taps=st.sampled_from([2, 4, 8]),
    out_lanes=st.integers(1, 24),
    start=st.integers(0, 6),
    step=st.integers(1, 4),
    layout=st.sampled_from(["contiguous", "strided", "reversed"]),
    with_acc=st.booleans(),
)
def test_property_float_sliding_mac_matches_frozen_view(
        data, ddtype, cdtype, taps, out_lanes, start, step, layout,
        with_acc):
    """Float data and/or taps, contiguous or non-contiguous input: the
    same window view fed to the same matmul, so bit-identical."""
    if np.dtype(ddtype).kind != "f" and np.dtype(cdtype).kind != "f":
        ddtype = np.float32
    n = start + (out_lanes - 1) * step + taps + data.draw(st.integers(0, 3))
    floats = st.floats(-1e4, 1e4, width=32)
    raw = np.array(data.draw(st.lists(floats, min_size=2 * n,
                                      max_size=2 * n)), dtype=ddtype)
    d = {"contiguous": raw[:n], "strided": raw[::2],
         "reversed": raw[::-1][:n]}[layout]
    c = np.array(data.draw(st.lists(floats, min_size=taps, max_size=taps)),
                 dtype=cdtype)
    acc = None
    if with_acc:
        acc = Accum(np.array(data.draw(st.lists(
            floats, min_size=out_lanes, max_size=out_lanes)),
            dtype=np.float32), "accfloat")
    _assert_same_outcome(
        _outcome(aie.sliding_mac, acc, aie.vec(c), d, out_lanes, start, step),
        _outcome(_frozen_sliding_mac, acc, aie.vec(c), d, out_lanes, start,
                 step))


@pytest.mark.parametrize("make", [
    lambda: np.ones(8, dtype=np.complex64),
    lambda: np.ones((8, 2), dtype=np.int16),
    lambda: np.ones(3, dtype=np.int16),
    lambda: np.ones(3, dtype=np.float32),
])
def test_sliding_mac_rejections_match_frozen(make):
    taps = aie.vec([1, 2, 3, 4], dtype=np.int16)
    _assert_same_outcome(_outcome(aie.sliding_mac, None, taps, make(), 4),
                         _outcome(_frozen_sliding_mac, None, taps, make(), 4))


@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_sliding_mac_zero_outputs_match_frozen(dtype):
    taps = aie.vec([1, 2, 3, 4], dtype=np.int16)
    d = np.arange(8, dtype=dtype)
    _assert_same_outcome(_outcome(aie.sliding_mac, None, taps, d, 0),
                         _outcome(_frozen_sliding_mac, None, taps, d, 0))


def test_sliding_mac_emit_unchanged():
    taps = aie.vec([1, 2, 3, 4], dtype=np.int16)
    for d in (np.arange(16, dtype=np.int64), np.arange(16.0)):
        with TraceRecorder() as rec:
            aie.sliding_mac(None, taps, d, 6, 1, 2)
        kind = "vmac" if d.dtype.kind == "i" else "vfpmac"
        width = 2 if kind == "vmac" else 4
        assert [(o.op, o.lanes, o.ebytes) for o in rec.ops] == \
            [(kind, 24, width)]


# ---------------------------------------------------------------------------
# round_shift / saturate
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    shift=st.integers(0, 62),
    mode=st.sampled_from(RoundMode.ALL),
)
def test_property_round_shift_matches_frozen(data, shift, mode):
    """Negatives, exact ties (+/-), int64 extremes, and a 0-d input."""
    ties = [k * (1 << shift) + (1 << shift) // 2
            for k in data.draw(st.lists(st.integers(-8, 8), max_size=6))]
    ties = [t for t in ties if -(1 << 63) <= t < (1 << 63)]
    plain = data.draw(st.lists(st.integers(-(1 << 63), (1 << 63) - 1),
                               max_size=16))
    edge = [-(1 << 63), (1 << 63) - 1, -1, 0, 1]
    v = np.array(ties + [-t for t in ties if t > -(1 << 63)] + plain + edge,
                 dtype=np.int64)
    _assert_same_outcome(_outcome(round_shift, v, shift, mode),
                         _outcome(_frozen_round_shift, v, shift, mode))
    for s in (np.int64(data.draw(st.sampled_from(list(v)))), *edge):
        _assert_same_outcome(_outcome(round_shift, s, shift, mode),
                             _outcome(_frozen_round_shift, s, shift, mode))


def test_round_shift_rejections_match_frozen():
    v = np.arange(-4, 4, dtype=np.int64)
    for shift, mode in ((-1, RoundMode.NEAREST), (3, "sideways")):
        _assert_same_outcome(_outcome(round_shift, v, shift, mode),
                             _outcome(_frozen_round_shift, v, shift, mode))


_SIGNED = [np.int8, np.int16, np.int32, np.int64]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    src=st.sampled_from(_SIGNED),
    dst=st.sampled_from(_SIGNED + [np.uint16, np.float32]),
)
def test_property_saturate_matches_frozen(data, src, dst):
    """Every signed source and target width; unsupported targets raise
    the same error."""
    info = np.iinfo(src)
    v = np.array(data.draw(st.lists(st.integers(info.min, info.max),
                                    min_size=1, max_size=32))
                 + [info.min, info.max], dtype=src)
    _assert_same_outcome(_outcome(saturate, v, dst),
                         _outcome(_frozen_saturate, v, dst))


# ---------------------------------------------------------------------------
# push / compare_exchange
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lanes", VALID_LANES)
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.float32, np.float64])
def test_push_matches_frozen(lanes, dtype):
    v = AieVector(np.arange(lanes).astype(dtype), _trusted=True)
    for value in (dtype(7), 3, -2.75):
        with TraceRecorder() as rec_new:
            new = _outcome(v.push, value)
        with TraceRecorder() as rec_old:
            old = _outcome(_frozen_push, v, value)
        _assert_same_outcome(new, old)
        assert rec_new.ops == rec_old.ops
        assert not np.shares_memory(new[1].data, v.data)
    assert list(v.data) == list(np.arange(lanes).astype(dtype))


@pytest.mark.parametrize("lanes", [n for n in VALID_LANES if n >= 2])
@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float32])
def test_compare_exchange_matches_frozen(lanes, dtype):
    """Same lanes and the same four micro-ops (vshuffle, vmin, vmax,
    vsel) in the same order, for every step of every stage."""
    rng = np.random.default_rng(lanes)
    v = AieVector(rng.integers(-99, 99, lanes).astype(dtype), _trusted=True)
    for stage in range(lanes.bit_length() - 1):
        for substage in range(stage + 1):
            distance = 1 << (stage - substage)
            mask = bitonic_stage_dirs(lanes, stage, substage)
            with TraceRecorder() as rec_new:
                new = _outcome(compare_exchange, v, distance, mask)
            with TraceRecorder() as rec_old:
                old = _outcome(_frozen_compare_exchange, v, distance, mask)
            _assert_same_outcome(new, old)
            assert rec_new.ops == rec_old.ops
            assert [o.op for o in rec_new.ops] == \
                ["vshuffle", "vmin", "vmax", "vsel"]
            v = new[1]


def test_compare_exchange_bad_distance_emits_nothing():
    v = aie.iota(16, np.int32)
    mask = bitonic_stage_dirs(16, 0, 0)
    with TraceRecorder() as rec:
        with pytest.raises(ValueError, match="butterfly distance"):
            compare_exchange(v, 3, mask)
    assert rec.ops == []


# ---------------------------------------------------------------------------
# the sorting network on raw lanes
# ---------------------------------------------------------------------------


def _frozen_lane_compare_exchange(v, distance, keep_min_mask):
    """``compare_exchange`` before the sort ran on raw lanes."""
    data = v.data
    lanes, ebytes = data.shape[0], data.itemsize
    idx = _butterfly_index(lanes, distance)
    emit("vshuffle", lanes, ebytes)
    partner = data[idx]
    emit("vmin", lanes, ebytes)
    lo = np.minimum(data, partner)
    emit("vmax", lanes, ebytes)
    hi = np.maximum(data, partner)
    emit("vsel", lanes, ebytes)
    out = np.where(np.asarray(keep_min_mask, dtype=bool), lo, hi)
    return AieVector(out, _trusted=True)


def _frozen_bitonic_sort_vector(v, descending=False):
    lanes = v.lanes
    if lanes & (lanes - 1):
        raise ValueError("bitonic sort needs a power-of-two lane count")
    n_stages = lanes.bit_length() - 1
    for stage in range(n_stages):
        for substage in range(stage + 1):
            distance = 1 << (stage - substage)
            mask = bitonic_stage_dirs(lanes, stage, substage)
            v = _frozen_lane_compare_exchange(v, distance, mask)
    if descending:
        v = reverse(v)
    return v


_SORT_INTS = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]
_SORT_DTYPES = [np.float32, np.float64] + _SORT_INTS
_SPECIALS = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf]


def _lanes_of(data, dtype, lanes):
    """*lanes* values of *dtype*: full-range integers, or floats mixed
    with NaN (both signs), signed zeros and infinities."""
    if dtype in _SORT_INTS:
        info = np.iinfo(dtype)
        return np.array(data.draw(st.lists(
            st.integers(int(info.min), int(info.max)),
            min_size=lanes, max_size=lanes)), dtype=dtype)
    width = 32 if dtype is np.float32 else 64
    values = st.one_of(st.sampled_from(_SPECIALS),
                       st.floats(width=width, allow_nan=True))
    return np.array(data.draw(st.lists(values, min_size=lanes,
                                       max_size=lanes)), dtype=dtype)


def _traced(fn, *args, **kwargs):
    with TraceRecorder() as rec:
        out = fn(*args, **kwargs)
    return out, rec.ops


def _assert_same_vector(new, old):
    assert isinstance(new, AieVector)
    assert not new.data.flags.writeable
    _assert_same_array(new.data, old.data)


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       lanes=st.sampled_from(VALID_LANES),
       dtype=st.sampled_from(_SORT_DTYPES),
       descending=st.booleans())
def test_property_bitonic_sort_matches_frozen(data, lanes, dtype,
                                              descending):
    v = AieVector(_lanes_of(data, dtype, lanes), _trusted=True)
    before = v.data.tobytes()
    new, new_ops = _traced(bitonic_sort_vector, v, descending=descending)
    old, old_ops = _traced(_frozen_bitonic_sort_vector, v, descending)
    _assert_same_vector(new, old)
    assert new_ops == old_ops
    assert v.data.tobytes() == before
    assert not np.shares_memory(new.data, v.data)


_MASK_FORMS = {
    "bool array": lambda m: np.array(m, dtype=bool),
    "bool list": lambda m: [bool(x) for x in m],
    "int list": lambda m: [int(x) for x in m],
    "int array": lambda m: np.array(m, dtype=np.int64) * 3,
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       lanes=st.sampled_from(VALID_LANES),
       dtype=st.sampled_from(_SORT_DTYPES),
       form=st.sampled_from(sorted(_MASK_FORMS)))
def test_property_compare_exchange_matches_frozen(data, lanes, dtype, form):
    v = AieVector(_lanes_of(data, dtype, lanes), _trusted=True)
    distance = 1 << data.draw(st.integers(0, lanes.bit_length() - 2))
    mask = _MASK_FORMS[form](data.draw(st.lists(
        st.booleans(), min_size=lanes, max_size=lanes)))
    new, new_ops = _traced(compare_exchange, v, distance, mask)
    old, old_ops = _traced(_frozen_lane_compare_exchange, v, distance, mask)
    _assert_same_vector(new, old)
    assert new_ops == old_ops
    assert [o.op for o in new_ops] == ["vshuffle", "vmin", "vmax", "vsel"]


def test_bitonic_sort_rejects_non_power_of_two_like_frozen():
    v = AieVector(np.arange(12, dtype=np.int32), _trusted=True)
    for fn in (bitonic_sort_vector, _frozen_bitonic_sort_vector):
        with TraceRecorder() as rec:
            with pytest.raises(ValueError, match="power-of-two"):
                fn(v)
        assert rec.ops == []


# ---------------------------------------------------------------------------
# errstate: the wrapping ops override numpy's ``over`` state only
# ---------------------------------------------------------------------------


_BIG = np.full(8, 3e38, dtype=np.float32)
_OVERFLOWING = {
    "add": lambda v: v + v,
    "radd": lambda v: 3e38 + v,
    "sub": lambda v: v - (-v.data),
    "rsub": lambda v: -3e38 - v,
    "mul": lambda v: v * 2,
    "rmul": lambda v: 2 * v,
}


@pytest.mark.parametrize("op", sorted(_OVERFLOWING))
def test_float_overflow_stays_silent(op):
    v = AieVector(_BIG.copy(), _trusted=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _OVERFLOWING[op](v)
    assert np.isinf(out.data).all()
    with np.errstate(over="raise"):
        out = _OVERFLOWING[op](v)
        assert np.geterr()["over"] == "raise"
    assert np.isinf(out.data).all()


@pytest.mark.parametrize("op", [lambda v: v - v,
                                lambda v: float("inf") - v,
                                lambda v: v + (-v.data)],
                         ids=["sub", "rsub", "add"])
def test_caller_invalid_raise_still_raises(op):
    v = AieVector(np.full(8, np.inf, dtype=np.float32), _trusted=True)
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            op(v)
    with np.errstate(invalid="ignore"):
        assert np.isnan(op(v).data).all()


class _ErrProbe(np.ndarray):
    """Lane data that records numpy's error state inside each ufunc."""

    seen = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _ErrProbe.seen.append(dict(np.geterr()))
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("op", [lambda v: v + 1, lambda v: v - 1,
                                lambda v: v * 2, lambda v: 1 - v,
                                lambda v: -v, lambda v: v.abs()],
                         ids=["add", "sub", "mul", "rsub", "neg", "abs"])
def test_ops_override_only_over(op):
    """Inside every wrapping op ``over`` is ignored, every other field
    is the caller's, and the caller's state is back afterwards."""
    v = AieVector(np.arange(8, dtype=np.int16).view(_ErrProbe),
                  _trusted=True)
    caller = dict(divide="raise", over="raise", under="warn",
                  invalid="raise")
    _ErrProbe.seen = []
    with np.errstate(**caller):
        op(v)
        assert np.geterr() == caller
    assert _ErrProbe.seen == [dict(caller, over="ignore")]


def test_errstate_per_thread_stress():
    """Threads with different caller error states share the one
    decorator; each keeps its own state across thousands of ops."""
    n_threads, rounds = 6, 300
    failures = []
    v = AieVector(np.arange(8, dtype=np.float32), _trusted=True)

    def worker(k):
        mine = "raise" if k % 2 else "ignore"
        with np.errstate(invalid=mine, over="warn"):
            for _ in range(rounds):
                _ = -(v + v) * 2 - 1
                _ = (1 - v).abs()
                state = np.geterr()
                if state["invalid"] != mine or state["over"] != "warn":
                    failures.append((k, state))

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


# ---------------------------------------------------------------------------
# the per-step ops at one allocation each: frozen copies of the bodies
# they replaced, compared on edge inputs (result bytes, dtype, read-only
# flag and exception type, plus the micro-ops recorded on the way)
# ---------------------------------------------------------------------------

_frozen_over = np.errstate(over="ignore")


def _frozen_check_lanes(lanes):
    if lanes not in VALID_LANES:
        raise ValueError(
            f"AIE vectors support lane counts {VALID_LANES}, got {lanes}")


def _frozen_init(data, _trusted=False):
    """``AieVector(data, _trusted)`` as it was."""
    v = object.__new__(AieVector)
    if not _trusted:
        data = np.array(data, copy=True)
        if data.ndim != 1:
            raise ValueError("AieVector must be one-dimensional")
        _frozen_check_lanes(data.shape[0])
    v.data = data
    data.setflags(write=False)
    return v


def _frozen_table_push(v, value):
    data = v.data
    emit("vshift_elem", data.shape[0], data.itemsize)
    idx = np.arange(-1, data.shape[0] - 1)
    idx[0] = 0
    out = data[idx]
    out[0] = value
    out.setflags(write=False)
    res = object.__new__(AieVector)
    res.data = out
    return res


def _frozen_getitem(v, i):
    emit("vext_elem", 1, v.data.itemsize)
    return v.data[i]


@_frozen_over
def _frozen_binop(v, other, ufunc, name):
    data = v.data
    rhs = other.data if isinstance(other, AieVector) else other
    emit(name, data.shape[0], data.itemsize)
    return _frozen_init(ufunc(data, rhs).astype(data.dtype, copy=False),
                        _trusted=True)


@_frozen_over
def _frozen_rsub(v, other):
    data = v.data
    emit("vsub", data.shape[0], data.itemsize)
    return _frozen_init((other - data).astype(data.dtype, copy=False),
                        _trusted=True)


def _frozen_vec(values, dtype=None):
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError("vec() expects a one-dimensional sequence")
    _frozen_check_lanes(arr.shape[0])
    emit("vld", arr.shape[0], arr.dtype.itemsize)
    return _frozen_init(arr.copy(), _trusted=True)


def _frozen_zeros(lanes, dtype=np.float32):
    _frozen_check_lanes(lanes)
    emit("vclr", lanes, np.dtype(dtype).itemsize)
    return _frozen_init(np.zeros(lanes, dtype=dtype), _trusted=True)


def _frozen_broadcast(value, lanes, dtype=None):
    _frozen_check_lanes(lanes)
    if dtype is None:
        dtype = np.asarray(value).dtype
    emit("vbcast", lanes, np.dtype(dtype).itemsize)
    return _frozen_init(np.full(lanes, value, dtype=dtype), _trusted=True)


def _frozen_exchange(data, idx, keep_min):
    lanes, ebytes = data.shape[0], data.itemsize
    emit("vshuffle", lanes, ebytes)
    emit("vmin", lanes, ebytes)
    emit("vmax", lanes, ebytes)
    emit("vsel", lanes, ebytes)
    partner = data[idx]
    out = np.maximum(data, partner)
    np.minimum(data, partner, out=out, where=keep_min)
    return out


def _assert_same_call(new_fn, old_fn, *args):
    with TraceRecorder() as rec_new:
        new = _outcome(new_fn, *args)
    with TraceRecorder() as rec_old:
        old = _outcome(old_fn, *args)
    _assert_same_outcome(new, old)
    assert rec_new.ops == rec_old.ops


def _i16():
    return AieVector(np.array([-32768, -2, -1, 0, 1, 2, 300, 32767],
                              dtype=np.int16), _trusted=True)


def _f32():
    return AieVector(np.array([-3e38, -1.5, -0.0, 0.0, 0.25, 1 / 3, 7.0,
                               3e38], dtype=np.float32), _trusted=True)


#: Values a kernel can hand an int16 or float32 lane: out-of-range Python
#: ints, NaN and infinities, float64 into float32, np.int32 into int16.
_EDGE_VALUES = {
    "int": 7, "int_over": 70000, "int_under": -70000, "int_neg": -5,
    "nan": float("nan"), "np_nan": np.float64("nan"), "inf": float("inf"),
    "float": 2.75, "f64_third": np.float64(1) / 3,
    "np_int32_over": np.int32(70000), "np_int32": np.int32(-5),
    "np_f32": np.float32(1.5), "bool": True, "str": "3", "list": [1, 2],
}
_VECTORS = {"i16": _i16, "f32": _f32}


@pytest.mark.parametrize("value", sorted(_EDGE_VALUES))
@pytest.mark.parametrize("lanes_of", sorted(_VECTORS))
def test_push_edges_match_frozen(lanes_of, value):
    v = _VECTORS[lanes_of]()
    _assert_same_call(v.push, lambda x: _frozen_table_push(v, x),
                      _EDGE_VALUES[value])


@pytest.mark.parametrize("lanes", [8, 16, 3, 0, -8, 8.0, np.int64(16)])
@pytest.mark.parametrize("dtype", [np.int16, np.float32, None])
@pytest.mark.parametrize("value", sorted(_EDGE_VALUES))
def test_broadcast_edges_match_frozen(value, dtype, lanes):
    _assert_same_call(aie.broadcast, _frozen_broadcast,
                      _EDGE_VALUES[value], lanes, dtype)


@pytest.mark.parametrize("lanes", [2, 8, 64, 3, 0, -8, 128, 8.0,
                                   np.int64(16), "8"])
@pytest.mark.parametrize("dtype", [np.int16, np.float32, "int32",
                                   np.complex64, "nonsense"])
def test_zeros_edges_match_frozen(lanes, dtype):
    _assert_same_call(aie.zeros, _frozen_zeros, lanes, dtype)


_VEC_INPUTS = {
    "f64_to_f32": (np.linspace(-1, 1, 8), np.float32),
    "i32_to_i16": (np.array([70000, -70000] * 4, dtype=np.int32),
                   np.int16),
    "int_over_i16": ([70000] * 8, np.int16),
    "nan_to_i16": ([float("nan")] * 8, np.int16),
    "list": ([1, 2, 3, 4], None),
    "strided": (np.arange(32, dtype=np.int16)[::2], None),
    "three_lanes": ([1, 2, 3], None),
    "empty": ([], np.float32),
    "two_dim": (np.zeros((2, 8)), None),
    "scalar": (5, None),
}


@pytest.mark.parametrize("case", sorted(_VEC_INPUTS))
def test_vec_edges_match_frozen(case):
    values, dtype = _VEC_INPUTS[case]
    _assert_same_call(aie.vec, _frozen_vec, values, dtype)
    if isinstance(values, np.ndarray):
        out = _outcome(aie.vec, values, dtype)
        if out[0] == "ok":
            assert not np.shares_memory(out[1].data, values)


@pytest.mark.parametrize("data", [
    np.arange(8, dtype=np.int16), [1.5] * 16, np.zeros(3),
    np.zeros((2, 8)), np.zeros(0), 7,
], ids=["i16", "list", "three_lanes", "two_dim", "empty", "scalar"])
def test_init_edges_match_frozen(data):
    _assert_same_call(AieVector, _frozen_init, data)
    _assert_same_call(lambda d: AieVector(np.asarray(d), _trusted=True),
                      lambda d: _frozen_init(np.asarray(d), True), data)


@pytest.mark.parametrize("i", [0, 3, -1, 7, 8, -9, np.int64(2),
                               slice(1, 3)])
@pytest.mark.parametrize("lanes_of", sorted(_VECTORS))
def test_getitem_edges_match_frozen(lanes_of, i):
    v = _VECTORS[lanes_of]()
    _assert_same_call(lambda k: v[k], lambda k: _frozen_getitem(v, k), i)


_BINOPS = {
    "add": (lambda v, x: v + x,
            lambda v, x: _frozen_binop(v, x, np.add, "vadd")),
    "radd": (lambda v, x: x + v,
             lambda v, x: _frozen_binop(v, x, np.add, "vadd")),
    "sub": (lambda v, x: v - x,
            lambda v, x: _frozen_binop(v, x, np.subtract, "vsub")),
    "rsub": (lambda v, x: x - v, _frozen_rsub),
    "mul": (lambda v, x: v * x,
            lambda v, x: _frozen_binop(v, x, np.multiply, "vmul")),
    "rmul": (lambda v, x: x * v,
             lambda v, x: _frozen_binop(v, x, np.multiply, "vmul")),
}
#: Right-hand sides a reflected op can also receive (numpy scalars on
#: the left would take the vector as a sequence instead).
_PY_OPERANDS = {k: _EDGE_VALUES[k] for k in (
    "int", "int_over", "int_under", "nan", "inf", "float", "bool")}
_ARRAY_OPERANDS = {
    "f64_third": _EDGE_VALUES["f64_third"],
    "np_int32_over": _EDGE_VALUES["np_int32_over"],
    "np_nan": _EDGE_VALUES["np_nan"],
    "i16_vec": None, "f32_vec": None,
    "i32_lanes": np.array([70000] * 8, dtype=np.int32),
    "f64_lanes": np.full(8, 1 / 3),
    "three": np.ones(3),
    "list": [1] * 8,
}


_OP_OPERANDS = [(op, rhs) for op in sorted(_BINOPS)
                for rhs in sorted(_PY_OPERANDS) + sorted(_ARRAY_OPERANDS)
                if rhs in _PY_OPERANDS or not op.startswith("r")]


@pytest.mark.parametrize("op,rhs", _OP_OPERANDS)
@pytest.mark.parametrize("lanes_of", sorted(_VECTORS))
def test_wrapping_ops_edges_match_frozen(lanes_of, op, rhs):
    v = _VECTORS[lanes_of]()
    if rhs in _PY_OPERANDS:
        x = _PY_OPERANDS[rhs]
    elif rhs.endswith("_vec"):
        x = _VECTORS[rhs[:3]]()
    else:
        x = _ARRAY_OPERANDS[rhs]
    new, old = _BINOPS[op]
    _assert_same_call(lambda y: new(v, y), lambda y: old(v, y), x)


@pytest.mark.parametrize("dtype", [np.int16, np.uint8, np.float32,
                                   np.float64])
def test_exchange_edges_match_frozen(dtype):
    from repro.aieintr.sortops import _exchange

    rng = np.random.default_rng(7)
    raw = rng.integers(0, 200, 16).astype(dtype)
    if raw.dtype.kind == "f":
        raw[[1, 6]] = np.nan
        raw[[2, 9]] = (-0.0, 0.0)
    for idx, keep_min in (
            (_butterfly_index(16, 1), bitonic_stage_dirs(16, 0, 0)),
            (_butterfly_index(16, 8), bitonic_stage_dirs(16, 3, 0)),
            (_butterfly_index(16, 2), np.ones(16, dtype=bool))):
        _assert_same_call(_exchange, _frozen_exchange, raw, idx, keep_min)


# -- the window-kernel path (farrow, IIR) ------------------------------------


def _frozen_head_sliding_mac(acc, coeffs, data, out_lanes, start=0, step=1):
    """``sliding_mac`` before the window path was trimmed (length checked
    before dimensionality, properties, unguarded emit)."""
    taps = coeffs.lanes
    d = np.asarray(data)
    need = start + (out_lanes - 1) * step + taps
    if d.shape[0] < need:
        raise ValueError("short")
    if d.ndim != 1:
        raise ValueError("ndim")
    ckind, dkind = coeffs.dtype.kind, d.dtype.kind
    if ckind == "c" or dkind == "c":
        raise TypeError("complex")
    total_macs = out_lanes * taps
    if ckind == "f" or dkind == "f":
        emit("vfpmac", total_macs, 4)
        s = d.strides[0]
        windows = np.lib.stride_tricks.as_strided(
            d[start:], shape=(out_lanes, taps), strides=(s * step, s),
            writeable=False)
        res = windows @ coeffs.data
        base = acc.data if acc is not None else 0
        kind = "accfloat"
        data_out = (base + res).astype(np.float32)
    else:
        emit("vmac", total_macs, coeffs.ebytes)
        x = d[start:need].astype(np.int64, copy=False)
        res = np.correlate(x, coeffs.data.astype(np.int64),
                           "valid")[:out_lanes * step:step]
        if acc is None:
            kind = "acc80" if coeffs.ebytes >= 4 else "acc48"
            data_out = res
        else:
            kind = acc.kind
            data_out = acc.data + res
    out = Accum(data_out, kind)
    if not out.is_float:
        _frozen_check_range(out)
    return out


def _frozen_check_range(acc):
    bits = {"acc48": 48, "acc80": 80, "accfloat": 32}[acc.kind]
    if acc.kind == "accfloat" or bits >= 64:
        return
    lim = np.int64(1) << (bits - 1)
    d = acc.data
    if d.size and (d.max() >= lim or d.min() < -lim):
        raise OverflowError(f"{acc.kind} accumulator overflow")


def _frozen_head_round_shift(values, shift, mode=RoundMode.NEAREST):
    v = np.asarray(values, dtype=np.int64)
    if shift < 0:
        raise ValueError("shift")
    if shift == 0:
        return v.copy()
    if mode == RoundMode.FLOOR:
        return v >> shift
    half = np.int64(1) << (shift - 1)
    if mode == RoundMode.NEAREST:
        return (v + ((v >= 0) + (half - 1))) >> shift
    return _frozen_round_shift(v, shift, mode)


def _frozen_srs_array(acc, shift, dtype=np.int16, mode=RoundMode.NEAREST):
    a = np.asarray(acc)
    emit("srs", int(a.shape[-1]) if a.ndim else 1, np.dtype(dtype).itemsize)
    return saturate(_frozen_head_round_shift(a, shift, mode), dtype)


def _frozen_va(op, a, b=None, *rest):
    """The ``va_*`` bodies as they were, by name."""
    a = np.asarray(a)
    n = int(a.size)
    if op in ("va_mul", "va_mac"):
        if a.dtype.kind in "iu":
            emit("vmul" if op == "va_mul" else "vmac", n, a.dtype.itemsize)
            prod = a.astype(np.int64) * np.asarray(b, dtype=np.int64)
            return prod if op == "va_mul" else \
                np.asarray(rest[0], dtype=np.int64) + prod
        emit("vfpmul" if op == "va_mul" else "vfpmac", n, a.dtype.itemsize)
        return a * b if op == "va_mul" else rest[0] + a * b
    if op == "va_round_shift":
        emit("vsrs", n, 8)
        return _frozen_head_round_shift(a, b, *rest)
    if op == "va_srs":
        dtype = rest[0] if rest else np.int16
        emit("vsrs", n, np.dtype(dtype).itemsize)
        return saturate(_frozen_head_round_shift(a, b, *rest[1:]), dtype)
    name, fn = {
        "va_add": ("vadd", lambda: a + b), "va_sub": ("vsub", lambda: a - b),
        "va_min": ("vmin", lambda: np.minimum(a, b)),
        "va_max": ("vmax", lambda: np.maximum(a, b)),
        "va_copy": ("vmov", lambda: np.array(a, copy=True)),
    }[op]
    emit(name, n, a.dtype.itemsize)
    return fn()


def _frozen_va_select(mask, a, b):
    a = np.asarray(a)
    emit("vsel", int(a.size), a.dtype.itemsize)
    return np.where(mask, a, b)


_I64_EDGES = np.array([-(1 << 63), (1 << 63) - 1, -(1 << 47), (1 << 47) - 1,
                       -16385, -16384, -1, 0, 1, 16384, 16385],
                      dtype=np.int64)


def _taps(*values, dtype=np.int16):
    return np.array(values, dtype=dtype)


@pytest.mark.parametrize("data,coeffs,acc", [
    (np.ones((2, 2000), dtype=np.int16), _taps(1, 2, 3, 4), None),
    (np.ones((2, 2), dtype=np.int16), _taps(1, 2, 3, 4), None),
    (np.ones(5, dtype=np.int16), _taps(1, 2, 3, 4), None),
    (np.zeros(12, dtype=np.float32),
     _taps(-0.5, -1.0, 0.0, -2.0, dtype=np.float32), None),
    (-np.ones(12), _taps(0, 0, 0, 0, dtype=np.float64), None),
    (np.arange(12, dtype=np.float32),
     _taps(0.5, 1, 2, 4, dtype=np.float32), "accfloat"),
    (np.full(12, 32767, dtype=np.int16), _taps(*[32767] * 4), "acc48"),
    (np.full(12, -(1 << 31), dtype=np.int64), _taps(*[-(1 << 15)] * 4),
     None),
    (np.arange(12, dtype=np.uint64), _taps(1, 2, 3, 4, dtype=np.uint16),
     None),
    (np.arange(12, dtype=np.int32), _taps(1, 2, 3, 4, dtype=np.int64),
     "acc80"),
    (np.ones(12, dtype=np.complex64), _taps(1, 2, 3, 4), None),
], ids=["2x2000", "2x2", "short", "neg_zero_f32", "neg_zero_f64",
        "float_acc", "acc48_overflow", "int64_wrap", "unsigned",
        "acc80", "complex"])
def test_sliding_mac_edges_match_frozen(data, coeffs, acc):
    if acc == "accfloat":
        acc = Accum(np.full(4, -0.0, dtype=np.float32), acc)
    elif acc is not None:
        acc = Accum(np.full(4, (1 << 47) - 100, dtype=np.int64), acc)
    for start, step in ((0, 1), (1, 2)):
        _assert_same_call(aie.sliding_mac, _frozen_head_sliding_mac,
                          acc, aie.vec(coeffs), data, 4, start, step)


def test_sliding_mac_checks_dimensionality_first():
    taps = aie.vec(np.arange(4, dtype=np.int16))
    with pytest.raises(ValueError, match="one-dimensional"):
        aie.sliding_mac(None, taps, np.ones((2, 2000), dtype=np.int16),
                        1024)


@pytest.mark.parametrize("kind", ["acc48", "acc80", "accfloat"])
@pytest.mark.parametrize("data", [
    np.array([(1 << 47) - 1, -(1 << 47)], dtype=np.int64),
    np.array([1 << 47], dtype=np.int64),
    np.array([-(1 << 47) - 1], dtype=np.int64),
    np.zeros(0, dtype=np.int64),
    np.array([[0, 1], [2, (1 << 47)]], dtype=np.int64),
    np.array([[0, 1], [2, 3]], dtype=np.int64),
    np.array(5, dtype=np.int64),
    _I64_EDGES,
], ids=["limits", "over", "under", "empty", "2d_over", "2d_in", "0d",
        "int64_edges"])
def test_check_range_edges_match_frozen(kind, data):
    def checked(check):
        def call(d):
            acc = Accum(d, kind)
            check(acc)
            return acc
        return call

    _assert_same_call(checked(Accum._check_range),
                      checked(_frozen_check_range), data)


@pytest.mark.parametrize("mode", RoundMode.ALL)
@pytest.mark.parametrize("shift", [0, 1, 15, 47, 62, 63, -1])
def test_round_shift_and_srs_edges_match_frozen(shift, mode):
    inputs = [_I64_EDGES, _I64_EDGES.reshape(1, -1), np.float64(-2.5),
              [3, -3], np.arange(-8, 8, dtype=np.int16)]
    inputs += [np.asarray(x) for x in _I64_EDGES]
    for v in inputs:
        _assert_same_call(round_shift, _frozen_head_round_shift, v, shift,
                          mode)
        for dtype in (np.int16, np.int8, np.int64, np.float32):
            _assert_same_call(aie.srs_array, _frozen_srs_array, v, shift,
                              dtype, mode)


_VA_OPERANDS = {
    "i16": np.arange(-8, 8, dtype=np.int16),
    "i64_edges": _I64_EDGES,
    "f32": np.linspace(-2, 2, 16, dtype=np.float32),
    "list": [1, -2, 3],
    "0d": np.asarray(np.int64(-7)),
}


@pytest.mark.parametrize("a", sorted(_VA_OPERANDS))
@pytest.mark.parametrize("op", ["va_add", "va_sub", "va_mul", "va_mac",
                                "va_round_shift", "va_srs", "va_min",
                                "va_max", "va_select", "va_copy"])
def test_va_edges_match_frozen(op, a):
    a = _VA_OPERANDS[a]
    fn = getattr(aie, op)
    n = np.shape(a)
    args = {
        "va_add": [(a, 3), (a, np.int32(70000)), (a, 2.5)],
        "va_sub": [(a, 3), (a, np.float64(1) / 3)],
        "va_mul": [(a, 13107), (a, np.int64(-1) << 40), (a, 0.5)],
        "va_mac": [(np.int64(5), a, 13107), (np.zeros(n), a, 2)],
        "va_round_shift": [(a, 15), (a, 0), (a, 1, RoundMode.EVEN)],
        "va_srs": [(a, 15), (a, 3, np.int8), (a, 1, np.int16,
                                               RoundMode.FLOOR)],
        "va_min": [(a, 0)], "va_max": [(a, 0)],
        "va_select": [(np.ones(n, dtype=bool), a, 0),
                      (np.zeros(n, dtype=bool), a, 2.5)],
        "va_copy": [(a,)],
    }[op]
    for call in args:
        if op == "va_select":
            _assert_same_call(fn, _frozen_va_select, *call)
            continue
        if op == "va_mac":
            # va_mac(acc, a, b): the frozen form takes the operand first.
            acc, x, b = call
            _assert_same_call(fn, lambda c, y, z: _frozen_va(op, y, z, c),
                              acc, x, b)
            continue
        _assert_same_call(fn, lambda *xs: _frozen_va(op, *xs), *call)
