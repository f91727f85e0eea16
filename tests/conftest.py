import time

import pytest

from fano3.eliminate import run_full_pipeline
from fano3.search import run_search


#: wall seconds of each session search of run_search(66, "greater", workers)
SEARCH_SECONDS = {}


def _timed_greater_search(workers):
    start = time.monotonic()
    result = run_search(66, "greater", workers)
    SEARCH_SECONDS[workers] = time.monotonic() - start
    return result


@pytest.fixture(scope="session")
def candidates_greater():
    return _timed_greater_search(1)


@pytest.fixture(scope="session")
def candidates_greater_w4():
    return _timed_greater_search(4)


@pytest.fixture(scope="session")
def candidates_greater_w8():
    return _timed_greater_search(8)


@pytest.fixture(scope="session")
def candidates_equal():
    return run_search(66, "equal", 1)


@pytest.fixture(scope="session")
def pipeline_report():
    return run_full_pipeline(workers=1)
