"""The one store for what is kept between calls, and clear_all().

A Kept is a dict under a byte budget: put evicts the oldest puts until the
new value fits, and a hit is a plain dict get.  Callers count a value with
sys.getsizeof of it and of its key, which outweigh a small array's values.
Each module-level store appends its clear function to `clears` where it is
defined, and clear_all() calls them all; a store an operator entry holds goes
with the entry.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

clears: list[Callable[[], None]] = []


def clear_all() -> None:
    """Forget everything kept between calls: every operator entry and every module-level store."""
    for clear in clears:
        clear()


class Kept(dict):
    """A dict of at most `budget` bytes, counted as put is told; a hit does not reorder."""

    __slots__ = ("budget", "sizes", "held")

    def __init__(self, budget: int) -> None:  # dict.__new__ has made it empty
        self.budget = budget
        self.sizes: deque[int] = deque()  # each kept value's size, in put order
        self.held = 0

    def put(self, key, value, size: int) -> None:
        """Keep value under a new key, evicting the oldest puts; a value over budget is not kept."""
        if key in self:
            raise KeyError(f"{key!r} is kept already")
        held = self.held + size
        if held > self.budget:
            if size > self.budget:
                return
            while held > self.budget:
                held -= self.sizes.popleft()
                del self[next(iter(self))]
        self[key] = value
        self.sizes.append(size)
        self.held = held

    def clear(self) -> None:
        super().clear()
        self.sizes.clear()
        self.held = 0
