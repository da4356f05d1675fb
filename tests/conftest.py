"""Marks the two acceptance criteria that train real models as `slow`.

`pytest -m "not slow"` then runs everything else in seconds; plain `pytest`
still runs every test.
"""

import pytest

_SLOW = {"test_criterion_06_mqar_learnability", "test_criterion_07_tradeoff_monotonicity"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in _SLOW:
            item.add_marker(pytest.mark.slow)
