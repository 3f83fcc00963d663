"""Self-tests of the harness's measurement rules.

Run before every benchmark run (a failure aborts it without a result)
and standalone: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import stats


def test_tail_percentile_leaves_ten_beyond():
    xs = list(range(1, 1001))
    p, v = stats.tail(xs)
    assert (p, v) == (99.0, 990)
    assert sum(x > v for x in xs) == stats.TAIL_BEYOND
    assert stats.nearest_rank(xs, 99) == v
    assert stats.supports(1000, 99) and not stats.supports(999, 99)
    assert stats.tail(list(range(10))) is None
    p, v = stats.tail(list(range(11)))
    assert v == 0 and abs(p - 100 / 11) < 1e-12


def test_open_loop_counts_from_due_time():
    # The generator stalled half a second before the second request:
    # its latency includes that stall; the third request never finished.
    lat, late = stats.open_loop([0.0, 1.0, 2.0], [0.0, 1.5, 2.5],
                                [0.1, 1.6, None])
    assert [round(x, 9) if x is not None else None for x in lat] == \
        [0.1, 0.6, None]
    assert late == [0.0, 0.5, 0.5]


def test_backlog_growth():
    flat = [(i / 100, 1 + i % 3) for i in range(200)]
    assert not stats.backlog_growing(flat, rate=100.0, workers=2)
    ramp = [(i / 100, i // 5) for i in range(200)]   # +20 per second
    assert stats.backlog_growing(ramp, rate=100.0, workers=2)
    slow = [(i / 100, i // 200) for i in range(200)]  # ends at 0
    assert not stats.backlog_growing(slow, rate=100.0, workers=2)


def test_span_self_time():
    sp = stats.Spans()
    sp.rows = [
        {"op": "a", "name": "op", "parent": None, "start": 0.0, "end": 10.0},
        {"op": "a", "name": "prep", "parent": 0, "start": 1.0, "end": 3.0},
        {"op": "a", "name": "run", "parent": 0, "start": 2.0, "end": 6.0},
    ]
    self_t = sp.self_times()
    assert self_t["op"] == [5.0]          # 10 - union([1,3],[2,6])
    assert self_t["prep"] == [2.0] and self_t["run"] == [4.0]
    with sp.span("outer"):
        with sp.span("inner"):
            pass
    assert sp.rows[-1]["parent"] == len(sp.rows) - 2


def run_all() -> None:
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()


if __name__ == "__main__":
    run_all()
    print("perfbench self-tests passed")
