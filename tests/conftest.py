import pytest

from fotsim import timebase


@pytest.fixture
def cold_kernel_cache(monkeypatch):
    """The process-wide flicker kernel cut back to its first tap and no
    kernel spectrum taken, for one test."""
    timebase._kernel_spectrum.cache_clear()
    monkeypatch.setattr(timebase, "_kernel", timebase._kernel[:1])
    yield
    timebase._kernel_spectrum.cache_clear()


@pytest.fixture
def pin_workers(monkeypatch):
    """pin_workers(k) makes stability's statistics run on k workers (the
    calling thread and k - 1 helpers), whatever CPUs this process may use."""
    from fotsim import stability

    def pin(count):
        monkeypatch.setattr(stability, "_worker_count", lambda: count)

    return pin
