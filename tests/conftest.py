import queue

import pytest

from fotsim import timebase, workers


@pytest.fixture
def cold_kernel_cache(monkeypatch):
    """No flicker kernel spectrum in the process-wide cache, for one test."""
    monkeypatch.setattr(timebase, "_spectra", {})


@pytest.fixture
def pin_workers(monkeypatch):
    """pin_workers(k) makes stability's statistics, the CSV reader, the CSV
    writer and a run's clocks run on k workers (the calling thread and
    k - 1 helpers), whatever CPUs this process may use."""

    def pin(count):
        monkeypatch.setattr(workers, "_worker_count", lambda: count)

    return pin


@pytest.fixture
def idle_helpers(monkeypatch):
    """No idle helper thread for one test: a helper it needs is started
    then, and joins the yielded queue once it has ended its run.  After the
    test, the helpers in that queue wait for the process's next calls."""
    kept, idle = workers._idle, queue.LifoQueue()
    monkeypatch.setattr(workers, "_idle", idle)
    yield idle
    while not idle.empty():
        kept.put(idle.get())
