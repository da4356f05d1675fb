"""Marks the acceptance tests that train real models as `slow`, and
gives the memory tests one way to measure a call.

`pytest -m "not slow"` then runs everything else in seconds; plain `pytest`
still runs every test.
"""

import tracemalloc

import pytest

_SLOW = {"test_criterion_06_mqar_learnability", "test_criterion_06_recipe_holds_at_f32", "test_criterion_07_tradeoff_monotonicity"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in _SLOW:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def traced():
    """`traced(fn, *args, **kwargs)` runs the call under tracemalloc and
    returns (result, peak, held): the bytes allocated at the call's
    high-water mark and those still allocated after it returns, both above
    what was allocated when it started."""

    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - base, held - base

    return run
