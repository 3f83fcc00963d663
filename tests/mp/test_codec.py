"""The cgsim-mp value codec: exact round trips and pass-through.

A worker writes each packable sink run into its hand-back file
(``write_packed``) and pickles the rest; the manager maps the file
(``read_packed``) and stores what arrives with the sink's
``store_many`` (``list.extend`` for a list sink).  Whatever the run
holds, the sink must end up with the same elements: same ``type()``,
same bytes.
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    Window,
    compute_kernel,
    float32,
    int32,
    make_compute_graph,
)
from repro.core.sources_sinks import sink_store
from repro.errors import GraphRuntimeError
from repro.exec import run_graph
from repro.mp.codec import pack_values, read_packed, write_packed

#: Every distinct numpy numeric scalar type on this platform.
NUMERIC_TYPES = sorted(
    {np.dtype(c).type
     for c in "?" + np.typecodes["AllInteger"] + np.typecodes["AllFloat"]},
    key=lambda t: t.__name__,
)

#: Types that cross as one typed ndarray (the rest pass through).
PACKED_TYPES = [t for t in NUMERIC_TYPES
                if t not in (np.longdouble, np.clongdouble)]


#: Types pickle itself renames (``longlong`` arrives as ``int64``):
#: for these the codec must match what pickling the scalars delivers.
PICKLE_RENAMED = [t for t in NUMERIC_TYPES
                  if type(pickle.loads(pickle.dumps(t(0)))) is not t]


def _handback(values):
    """What reaches the manager for one sink run: a packed run through
    a hand-back file (its control message pickled, as over the pipe),
    anything else pickled."""
    fd = os.memfd_create("test-handback", os.MFD_CLOEXEC)
    try:
        packed, rest = pickle.loads(pickle.dumps(write_packed(fd, {0: values})))
        return read_packed(fd, packed)[0] if packed else rest[0]
    finally:
        os.close(fd)


def _hop(values):
    """What a list sink holds after the hand-back."""
    store = []
    store.extend(_handback(values))
    return store


def _assert_exact(sent, got):
    """*got* is what pickling *sent* element by element delivers: the
    same elements, type and bytes."""
    want = pickle.loads(pickle.dumps(list(sent)))
    assert len(got) == len(want)
    for a, b, w in zip(sent, got, want):
        assert type(b) is type(w)
        assert b.tobytes() == w.tobytes() == a.tobytes()
        if type(a) not in PICKLE_RENAMED:
            assert type(b) is type(a)


@st.composite
def numeric_runs(draw):
    """A run of one numeric type from arbitrary bit patterns: NaN
    payloads, signed zeros, infinities and integer extremes included."""
    t = draw(st.sampled_from(NUMERIC_TYPES))
    n = draw(st.integers(1, 40))
    if t is np.bool_:
        return [np.bool_(b) for b in draw(st.lists(st.booleans(),
                                                   min_size=n, max_size=n))]
    raw = draw(st.binary(min_size=n * np.dtype(t).itemsize,
                         max_size=n * np.dtype(t).itemsize))
    return list(np.frombuffer(raw, dtype=t))


@settings(max_examples=300, deadline=None)
@given(numeric_runs())
def test_numeric_runs_round_trip_exactly(values):
    _assert_exact(values, _hop(values))


#: A signalling NaN and a negative quiet NaN with a payload, per
#: float component width.
NAN_BITS = {
    2: np.array([0x7C01, 0xFE55], dtype=np.uint16),
    4: np.array([0x7F800001, 0xFFC12345], dtype=np.uint32),
    8: np.array([0x7FF0000000000001, 0xFFF8000000012345], dtype=np.uint64),
}


@pytest.mark.parametrize("t", NUMERIC_TYPES, ids=lambda t: t.__name__)
def test_edge_values_round_trip(t):
    if t is np.bool_:
        values = [np.bool_(True), np.bool_(False)]
    elif issubclass(t, np.integer):
        info = np.iinfo(t)
        values = [t(info.min), t(info.max), t(0), t(info.max // 2)]
    else:
        values = [t(-0.0), t(0.0), t(np.inf), t(-np.inf), t(np.nan)]
        width = np.dtype(t).itemsize
        if issubclass(t, np.complexfloating):
            width //= 2
        if width in NAN_BITS:
            bits = NAN_BITS[width]
            values += list(np.concatenate([bits, bits[::-1]]).view(t))
    _assert_exact(values, _hop(values))


@pytest.mark.parametrize("t", PACKED_TYPES, ids=lambda t: t.__name__)
def test_homogeneous_numeric_runs_cross_as_one_array(t):
    values = [t(1), t(0), t(1)]
    packed = pack_values(values)
    assert type(packed) is np.ndarray and packed.dtype.type is t


@pytest.mark.parametrize("stream, t", [(float32, np.float32),
                                       (int32, np.int32)])
def test_packed_run_fills_a_sink_array_like_its_elements(stream, t):
    values = list(np.arange(-3, 5, dtype=t))
    want = np.zeros(len(values), dtype=t)
    sink_store(stream, want)[1](values)
    got = np.zeros(len(values), dtype=t)
    sink_store(stream, got)[1](_handback(values))
    assert got.tobytes() == want.tobytes()


def _strided(dtype, n=3, k=8):
    """*n* non-contiguous blocks of *k* elements (every other element
    of a wider row)."""
    base = np.arange(n * 2 * k).astype(dtype).reshape(n, 2 * k)
    if np.dtype(dtype).kind == "c":
        base = base - 1j * base
    return [row[::2] for row in base]


#: Runs of window blocks: one plain ndarray type, one numeric dtype, one
#: shape.  Each crosses as one ``(n, *shape)`` array.
PACKED_BLOCKS = {
    "ndarray_blocks": [np.zeros(4, np.float32), np.ones(4, np.float32)],
    "float32": list(np.frombuffer(
        np.array([0x7FC00001, 0xFF800000, 0x80000000, 1] * 6, np.uint32),
        np.float32).reshape(3, 8)),
    "int16": list(np.array([[-32768, 32767, 0, -1]] * 5, np.int16)),
    "complex128": [np.array([1 + 2j, -0.0 - 0j, np.nan * 1j], np.complex128),
                   np.array([np.inf, 3j, -1], np.complex128)],
    "two_d_blocks": [np.arange(6, dtype=np.int32).reshape(2, 3) + i
                     for i in range(4)],
    "big_endian": [np.arange(4, dtype=">f8"), np.ones(4, dtype=">f8")],
    "float32_strided": _strided(np.float32),
    "int16_strided": _strided(np.int16),
    "complex128_strided": _strided(np.complex128),
    "more_blocks_than_iov_max": [np.full(2, i, np.int16)
                                 for i in range(2100)],
}


@pytest.mark.parametrize("name", sorted(PACKED_BLOCKS))
def test_block_runs_cross_as_one_array(name):
    blocks = PACKED_BLOCKS[name]
    packed = pack_values(blocks)
    assert type(packed) is np.ndarray
    assert packed.dtype == blocks[0].dtype
    assert packed.shape == (len(blocks),) + blocks[0].shape
    arrived = _handback(blocks)
    assert arrived.dtype == packed.dtype and arrived.shape == packed.shape
    assert arrived.tobytes() == packed.tobytes()
    assert arrived.flags.writeable


@pytest.mark.parametrize("name", sorted(PACKED_BLOCKS))
def test_block_runs_round_trip_into_list_sinks(name):
    blocks = PACKED_BLOCKS[name]
    got = _hop(blocks)
    assert len(got) == len(blocks)
    for a, b in zip(blocks, got):
        assert type(b) is np.ndarray
        assert b.dtype == a.dtype and b.shape == a.shape
        assert b.tobytes() == a.tobytes()


def test_several_runs_share_one_file():
    runs = {0: PACKED_BLOCKS["int16"], 1: [], 2: [1, 2],
            3: [np.zeros(0, np.float32)] * 3, 4: PACKED_BLOCKS["complex128"],
            5: list(np.arange(5, dtype=np.int8))}
    fd = os.memfd_create("test-handback", os.MFD_CLOEXEC)
    try:
        packed, rest = write_packed(fd, runs)
        got = read_packed(fd, packed)
    finally:
        os.close(fd)
    assert set(packed) == {0, 3, 4, 5} and rest == {1: [], 2: [1, 2]}
    for key in packed:
        assert got[key].tobytes() == pack_values(runs[key]).tobytes()
        assert got[key].ctypes.data % got[key].dtype.alignment == 0


PASS_THROUGH = {
    "empty_list": [],
    "empty_tuple": (),
    "python_int": [1, 2, 3],
    "python_float": [1.5, -0.0],
    "python_complex": [1j, 2 + 0j],
    "python_bool": [True, False],
    "float64_mixed_with_float": [np.float64(1.0), 2.0],
    "mixed_numpy_types": [np.float32(1), np.float64(1)],
    "zero_d_arrays": [np.array(1.0), np.array(2.0)],
    "ragged_blocks": [np.zeros(4, np.float32), np.zeros(5, np.float32)],
    "reshaped_blocks": [np.zeros(4, np.float32),
                        np.zeros((2, 2), np.float32)],
    "mixed_dtype_blocks": [np.zeros(4, np.float32), np.zeros(4, np.float64)],
    "mixed_byte_order_blocks": [np.zeros(4, "<f4"), np.zeros(4, ">f4")],
    "blocks_and_scalars": [np.zeros(4, np.float32), np.float32(0)],
    "object_blocks": [np.array([1, "a"], dtype=object)] * 2,
    "datetime_blocks": [np.zeros(2, "M8[s]")] * 2,
    "subclass_blocks": [np.zeros(4).view(np.recarray)] * 2,
    "masked_blocks": [np.ma.masked_array([1.0, 2.0], mask=[0, 1])] * 2,
    "tuples": [(1, 2), (3, 4)],
    "datetime64": [np.datetime64("2025-01-01"), np.datetime64("2025-01-02")],
    "str_": [np.str_("a"), np.str_("bc")],
    "timedelta64": [np.timedelta64(1, "s"), np.timedelta64(2, "s")],
    "longdouble": [np.longdouble(1) / 3, np.longdouble(2)],
    "clongdouble": [np.clongdouble(1j)],
}


@pytest.mark.parametrize("name", sorted(PASS_THROUGH))
def test_other_runs_pass_through_untouched(name):
    values = PASS_THROUGH[name]
    assert pack_values(values) is values
    got = _hop(values)
    assert len(got) == len(values)
    for a, b in zip(values, got):
        assert type(b) is type(a)
        assert np.array_equal(np.asarray(a), np.asarray(b))


# -- end to end: window blocks through cgsim-mp sinks --------------------------

WIN4 = Window(float32, 4)


@compute_kernel(realm=AIE)
async def mp_codec_pass(x: In[WIN4], y: Out[WIN4]):
    while True:
        await y.put(await x.get())


@make_compute_graph(name="mp_codec_lanes")
def WINDOW_LANES(a: IoC[WIN4], b: IoC[WIN4]):
    """Two independent lanes, so two workers each hand back a sink.  The
    stream is not validated: the kernel passes on whatever blocks the
    sources carry, of any dtype."""
    outs = []
    for i, x in enumerate((a, b)):
        y = IoConnector(WIN4, name=f"y{i}")
        mp_codec_pass(x, y)
        outs.append(y)
    return tuple(outs)


def _lane_blocks(dtype, n=6):
    base = np.arange(2 * n * 8).astype(dtype)
    if np.dtype(dtype).kind == "c":
        base = base * (1 - 2j)
    # Every other element: non-contiguous source blocks.
    rows = base.reshape(2, n, 8)[:, :, ::2]
    return [list(rows[0]), list(rows[1])]


def _run(backend, inputs, sinks):
    opts = {"workers": 2} if backend == "cgsim-mp" else {}
    return run_graph(WINDOW_LANES, *inputs, *sinks, backend=backend, **opts)


@pytest.mark.parametrize("dtype", [np.float32, np.int16, np.complex128])
def test_blocks_round_trip_into_list_sinks_like_cgsim(dtype):
    inputs = _lane_blocks(dtype)
    sp, mp = [[], []], [[], []]
    assert _run("cgsim", inputs, sp).completed
    result = _run("cgsim-mp", inputs, mp)
    assert result.completed and result.n_threads == 2
    for a, b in zip(sp, mp):
        assert len(b) == len(a) == 6
        for x, y in zip(a, b):
            assert type(y) is type(x) is np.ndarray
            assert y.dtype == x.dtype == dtype and y.shape == x.shape
            assert y.tobytes() == x.tobytes()


@pytest.mark.parametrize("dtype, sd", [
    (np.float32, np.float32), (np.float32, np.float64), (np.float32, np.int8),
    (np.int16, np.int16), (np.int16, np.float64), (np.int16, np.int8),
    (np.complex128, np.complex128), (np.complex128, np.complex64),
])
def test_blocks_round_trip_into_ndarray_sinks_like_cgsim(dtype, sd):
    """Sink arrays of the blocks' own dtype and of others: cgsim-mp
    fills them exactly as cgsim's block stores do."""
    inputs = _lane_blocks(dtype)
    sp = [np.zeros(24, sd) for _ in range(2)]
    mp = [np.zeros(24, sd) for _ in range(2)]
    assert _run("cgsim", inputs, sp).completed
    assert _run("cgsim-mp", inputs, mp).completed
    for a, b in zip(sp, mp):
        assert b.dtype == a.dtype and b.tobytes() == a.tobytes()
        assert a.any()


def test_ndarray_sink_of_another_dtype_raises_at_the_same_block():
    """A float64 sink array with room for 4 of 6 int16 blocks: both
    backends store the first 4 blocks, cast, and raise on the fifth."""
    inputs = _lane_blocks(np.int16)
    got = {}
    for backend in ("cgsim", "cgsim-mp"):
        sinks = [np.full(16, -1.0) for _ in range(2)]
        with pytest.raises(GraphRuntimeError, match="sink array overflow"):
            _run(backend, inputs, sinks)
        got[backend] = sinks
    for a, b in zip(got["cgsim"], got["cgsim-mp"]):
        assert b.tobytes() == a.tobytes()
    assert got["cgsim"][0][-1] == 30.0
