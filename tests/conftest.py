import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)``: the most memory tracemalloc saw allocated while
    ``fn()`` ran, in bytes, counting only what ``fn`` allocated."""
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
