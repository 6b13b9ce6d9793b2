"""Two-bit saturating counters and counter tables.

The building block of the 2bcgskew banks, the back-up direction bits in
the trace cache's BTB path, and the hysteresis counters of the stream
and trace predictors' replacement policy.
"""

from __future__ import annotations

from typing import List


class TwoBitCounter:
    """One 2-bit saturating counter (0..3; >=2 predicts taken)."""

    __slots__ = ("value",)

    def __init__(self, value: int = 1) -> None:
        if not 0 <= value <= 3:
            raise ValueError("2-bit counter value out of range")
        self.value = value

    @property
    def taken(self) -> bool:
        return self.value >= 2

    def update(self, taken: bool) -> None:
        if taken:
            if self.value < 3:
                self.value += 1
        elif self.value > 0:
            self.value -= 1


class CounterTable:
    """A direct-mapped table of 2-bit counters stored as a flat list.

    Counters are plain ints for speed; the table exposes index-level
    predict/update so callers can apply their own hashing.
    """

    __slots__ = ("size", "_counters", "_mask")

    def __init__(self, size: int, init: int = 1) -> None:
        if size < 1 or size & (size - 1):
            raise ValueError("table size must be a power of two")
        if not 0 <= init <= 3:
            raise ValueError("bad initial counter value")
        self.size = size
        self._mask = size - 1
        self._counters: List[int] = [init] * size

    def predict(self, index: int) -> bool:
        return self._counters[index & self._mask] >= 2

    def counter(self, index: int) -> int:
        return self._counters[index & self._mask]

    def update(self, index: int, taken: bool) -> None:
        i = index & self._mask
        value = self._counters[i]
        if taken:
            if value < 3:
                self._counters[i] = value + 1
        elif value > 0:
            self._counters[i] = value - 1

    def strengthen(self, index: int, taken: bool) -> None:
        """Reinforce only if the counter already agrees (partial update)."""
        i = index & self._mask
        value = self._counters[i]
        if taken and value >= 2 and value < 3:
            self._counters[i] = value + 1
        elif not taken and value <= 1 and value > 0:
            self._counters[i] = value - 1
