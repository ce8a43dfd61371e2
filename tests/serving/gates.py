"""Deterministic control of "a dispatch is in flight" for the serving tests.

The micro-batcher's interesting behaviour (coalescing, backpressure, drain)
happens *while the dispatch worker is busy*.  Holding the dispatch on a
``threading.Event`` makes that a state the test owns instead of a race
against a timer, and :func:`wait_until` awaits every other precondition as a
condition — a slow machine only waits longer, it cannot change the outcome.
"""

from __future__ import annotations

import asyncio
import threading
import time

WAIT_SECONDS = 30.0


class GatedDispatch:
    """Wrap a dispatch callable so every call blocks until ``release`` is set.

    ``entered`` is set once the worker thread is inside a dispatch;
    ``batches`` records the matrix each dispatch saw, in order.
    """

    def __init__(self, dispatch):
        self._dispatch = dispatch
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batches = []

    def __call__(self, matrix):
        self.batches.append(matrix)
        self.entered.set()
        assert self.release.wait(WAIT_SECONDS), "test never released the dispatch"
        return self._dispatch(matrix)

    async def wait_entered(self):
        """Await, off the event loop, the worker thread entering a dispatch."""
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.entered.wait, WAIT_SECONDS)


def wait_until(condition, what, timeout=WAIT_SECONDS):
    """Block the calling (non-loop) thread until ``condition()`` holds."""
    end = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < end, f"timed out waiting until {what}"
        time.sleep(0.005)
