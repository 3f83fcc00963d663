"""The cgsim-mp value codec: exact round trips and pass-through.

A worker pickles ``pack_values(run)`` of each sink; the manager stores
what arrives with the sink's ``store_many`` (``list.extend`` for a list
sink).  Whatever the run holds, the sink must end up with the same
elements: same ``type()``, same bytes.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import float32, int32
from repro.core.sources_sinks import sink_store
from repro.mp.codec import pack_values

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


def _hop(values):
    """What a list sink holds after the hand-back."""
    store = []
    store.extend(pickle.loads(pickle.dumps(pack_values(values))))
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
    sink_store(stream, got)[1](pickle.loads(pickle.dumps(pack_values(values))))
    assert got.tobytes() == want.tobytes()


PASS_THROUGH = {
    "empty_list": [],
    "empty_tuple": (),
    "python_int": [1, 2, 3],
    "python_float": [1.5, -0.0],
    "python_complex": [1j, 2 + 0j],
    "python_bool": [True, False],
    "float64_mixed_with_float": [np.float64(1.0), 2.0],
    "mixed_numpy_types": [np.float32(1), np.float64(1)],
    "ndarray_blocks": [np.zeros(4, np.float32), np.ones(4, np.float32)],
    "zero_d_arrays": [np.array(1.0), np.array(2.0)],
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
