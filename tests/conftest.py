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
