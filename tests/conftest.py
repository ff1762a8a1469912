import os
import tracemalloc

import numpy as np
import pytest

from smallball import Curve, FunctionalSample, Grid, SeededRng, grids


@pytest.fixture
def unit_grid() -> Grid:
    return Grid.uniform(0.0, 1.0, 100)


@pytest.fixture
def sine_grid() -> Grid:
    return Grid.uniform(0.0, np.pi, 100)


def make_curve(grid: Grid, fn) -> Curve:
    return Curve(grid, fn(grid.points))


def make_sample(grid: Grid, rows: np.ndarray) -> FunctionalSample:
    return FunctionalSample(grid, rows)


@pytest.fixture
def rng0() -> SeededRng:
    return SeededRng(seed=12345, stream=0)


@pytest.fixture
def traced_peak():
    """``measure(fn)`` calls fn() under tracemalloc and returns (result, peak bytes the call allocated)."""

    def measure(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak - before

    return measure


@pytest.fixture
def block_rows(monkeypatch):
    """``set_rows(rows, width)`` shrinks the row-block budget so a pass over width-p rows takes ``rows`` at a time."""

    def set_rows(rows: int, width: int) -> None:
        monkeypatch.setattr(grids, "_ROW_BLOCK_FLOATS", rows * width)

    return set_rows


@pytest.fixture
def forks(monkeypatch):
    """Make ``os.fork`` record the pid of each child it starts; returns that list, in order."""
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forked
