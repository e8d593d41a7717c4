import tracemalloc

import pytest
from hypothesis import HealthCheck, settings

# Property tests call numerically heavy routines; wall-clock deadlines only
# add flakiness on loaded machines.
settings.register_profile(
    "mixbound",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("mixbound")


def _traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that ``fn(*args, **kwargs)`` allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
