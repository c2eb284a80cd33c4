"""``EpochFence`` — waves and update landings never overlap.

A serving wave reads the graph epoch, dispatches its tasks and collects
their outcomes; an update *lands* by resetting handles, shipping patches,
wiping the cache and bumping the epoch.  If a landing could happen inside
a wave, the wave's answers would be computed partly on the old state and
stamped with whichever epoch the caller happened to read afterwards.

The fence is a readers-writer lock around exactly those two sections:
any number of waves hold the shared side at once, and a landing holds
the exclusive side, so every answer is computed on the state of the
epoch it is stamped with.  The slow part of an update (repairing tables,
rebuilding an engine) stays outside the fence, and reads keep flowing
meanwhile.  Landings are preferred: once one waits, new waves queue
behind it, so a steady read stream cannot starve an update; a landing
waits at most for the waves already in flight.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["EpochFence"]


class EpochFence:
    """Readers-writer fence between serving waves and update landings."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._waves = 0
        self._landings_waiting = 0
        self._landing = False
        #: The epoch waves read; assign it inside :meth:`landing`.
        self.epoch = 0

    @contextmanager
    def wave(self) -> Iterator[int]:
        """Hold the shared side; yields the epoch the wave serves."""
        with self._cond:
            while self._landing or self._landings_waiting:
                self._cond.wait()
            self._waves += 1
            epoch = self.epoch
        try:
            yield epoch
        finally:
            with self._cond:
                self._waves -= 1
                if not self._waves:
                    self._cond.notify_all()

    @contextmanager
    def landing(self) -> Iterator[None]:
        """Hold the exclusive side once every in-flight wave has finished."""
        with self._cond:
            self._landings_waiting += 1
            while self._landing or self._waves:
                self._cond.wait()
            self._landings_waiting -= 1
            self._landing = True
        try:
            yield
        finally:
            with self._cond:
                self._landing = False
                self._cond.notify_all()
