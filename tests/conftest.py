import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fano3.search
from fano3.eliminate import run_full_pipeline
from fano3.search import run_search


#: wall seconds of each session search of run_search(66, "greater", workers)
SEARCH_SECONDS = {}


def run_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports fano3 from
    this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )


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
def candidates_q40():
    """Every candidate of ``run_search(40, mode)``, both modes together."""
    return run_search(40, "greater", 1) + run_search(40, "equal", 1)


@pytest.fixture(scope="session")
def candidates_q6():
    """Every candidate of ``run_search(6, mode)``, both modes together:
    the whole index spectrum the search admits."""
    return run_search(6, "greater", 1) + run_search(6, "equal", 1)


@pytest.fixture(scope="session")
def pipeline_report(candidates_greater):
    """``run_full_pipeline(workers=1)`` on the session's serial search."""

    def session_search(q_min, mode, workers):
        assert (q_min, mode, workers) == (66, "greater", 1)
        return candidates_greater

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fano3.search, "run_search", session_search)
        return run_full_pipeline(workers=1)
