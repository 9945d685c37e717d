"""A gauge of the machine's speed while the program runs.

The machine the benchmark was written on runs pure-Python code at speeds
that wander by a quarter and more over minutes, as other tenants of the
host come and go; the same survey took 18 s at one time and 31 s at
another.  Ten runs spread over several minutes then scatter by more than
any change worth finding.  So every run also times a fixed piece of work,
`reference()`, between the program's operations, and each round's timed
figures are scaled by REF_S / (the round's mean reference time): they read
as the time the operations would take at the speed at which `reference()`
takes REF_S.  The reference is the benchmark's own code and never changes
with the program, so a change to the program moves the scaled figures as
it moves the raw ones.  The result record keeps the unscaled figures and
the scales.
"""

from __future__ import annotations

import gc
import time

# A round figure near the mean time of one reference() call on the 2-core
# machine the figures in README.md were taken on, with Python 3.11.7 (the
# README gives the range the rounds' means took there).
REF_S = 1.0e-3

# Fixed data for reference(), built once at import so that the reference
# work itself allocates no containers: a container allocated there could
# start a garbage collection whose length depends on the program's heap.
_PETERSEN_ADJ = tuple(
    1 << (i + 1) % 5 | 1 << (i - 1) % 5 | 1 << i + 5 if i < 5
    else 1 << i - 5 | 1 << 5 + (i + 2) % 5 | 1 << 5 + (i - 2) % 5
    for i in range(10)
)
_TABLE = {i: (i * 7919) % 1013 for i in range(1 << 10)}
_MEMBERS = frozenset(range(0, 1 << 10, 3))


def _calls(depth: int) -> int:
    if depth == 0:
        return 1
    return _calls(depth - 1) + _calls(depth - 1) + _calls(depth - 1)


def reference() -> int:
    """A fixed piece of pure-Python work of the kinds the program does: a
    Gray-code walk over the vertex bitmasks of the Petersen graph keeping
    its cut size, dict and set lookups, and recursive calls.  It allocates
    no containers.  Takes about REF_S."""
    acc = 0
    for _ in range(3):
        side, crossing = 1, 3
        for i in range(1, 1 << 9):
            x = (i & -i).bit_length()
            side ^= 1 << x
            to_side = (_PETERSEN_ADJ[x] & side).bit_count()
            crossing += 3 - 2 * to_side if side >> x & 1 else 2 * to_side - 3
            acc += _TABLE[side]
            if side in _MEMBERS:
                acc ^= crossing
    return acc + _calls(6)


class Gauge:
    """Times reference() when asked, at most once per `every` seconds."""

    def __init__(self, every: float = 0.025):
        self.every = every
        self.samples: list[float] = []
        self.spent = 0.0  # wall time taken by sampling, kept out of the figures
        self._next = 0.0

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._next = t1 + self.every

    def maybe(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self, since: int = 0) -> float | None:
        """REF_S over the mean time of the samples from number `since` on,
        or None when there are none.  The mean, not the median: the machine
        flips between a fast and a slow state many times a second, and the
        program's own times average over both, weighted by the time spent
        in each, as the mean does."""
        taken = self.samples[since:]
        return REF_S * len(taken) / sum(taken) if taken else None
