"""The perf instrumentation module: counters, timers, cache registry."""

import threading
import time

from repro import perf


def test_counters_accumulate_and_reset():
    perf.reset()
    perf.inc("x")
    perf.inc("x", 2)
    perf.inc("y", 0.5)
    assert perf.counters()["x"] == 3
    assert perf.counters()["y"] == 0.5
    perf.reset()
    assert "x" not in perf.counters()


def test_timer_accumulates():
    perf.reset()
    with perf.timer("stage"):
        pass
    with perf.timer("stage"):
        pass
    assert perf.timers()["stage"] >= 0.0


def test_timer_same_name_nesting_does_not_double_count():
    """Regression: nested same-name timers used to add both the outer and
    the inner elapsed time, so accumulated time exceeded wall time."""
    perf.reset()
    t0 = time.perf_counter()
    with perf.timer("stage"):
        with perf.timer("stage"):
            time.sleep(0.02)
        with perf.timer("stage"):  # sequential re-entry, still nested
            time.sleep(0.02)
    wall = time.perf_counter() - t0
    assert perf.timers()["stage"] <= wall


def test_timer_reentrancy_is_per_name():
    """Different names nested inside each other both accumulate."""
    perf.reset()
    with perf.timer("outer"):
        with perf.timer("inner"):
            time.sleep(0.01)
    t = perf.timers()
    assert t["inner"] > 0.0
    assert t["outer"] >= t["inner"]


def test_timer_reentrancy_resets_after_exit():
    """A timer re-entered *sequentially* (not nested) accumulates both."""
    perf.reset()
    with perf.timer("stage"):
        time.sleep(0.01)
    with perf.timer("stage"):
        time.sleep(0.01)
    assert perf.timers()["stage"] >= 0.02


def test_inc_is_thread_safe():
    perf.reset()

    def work():
        for _ in range(2000):
            perf.inc("n")

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert perf.counters()["n"] == 16000


def test_timers_are_per_thread_reentrant():
    """Two threads timing the same stage both accumulate (no cross-thread
    suppression)."""
    perf.reset()

    def work():
        with perf.timer("stage"):
            time.sleep(0.01)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert perf.timers()["stage"] >= 0.02


def test_timer_records_on_exception():
    perf.reset()
    try:
        with perf.timer("boom"):
            raise ValueError
    except ValueError:
        pass
    assert "boom" in perf.timers()


def test_snapshot_shape():
    perf.reset()
    perf.inc("a")
    snap = perf.snapshot()
    assert snap["counters"]["a"] == 1
    assert isinstance(snap["timers"], dict)
    # the simulator/tuner caches are registered at import time
    assert "kernel.cost" in snap["cache_sizes"]
    assert "compile" in snap["cache_sizes"]


def test_caching_enabled_follows_config(configure):
    configure(cache=True)
    assert perf.caching_enabled()
    configure(cache=False)
    assert not perf.caching_enabled()
    configure(cache=True)
    assert perf.caching_enabled()


def test_register_and_clear_caches():
    d = perf.register_cache("test.scratch", {})
    try:
        d["k"] = "v"
        assert perf.snapshot()["cache_sizes"]["test.scratch"] == 1
        perf.clear_caches()
        assert d == {}
    finally:
        perf._CACHES.pop("test.scratch", None)
