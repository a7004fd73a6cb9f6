"""Estimators for a shared box.

Interference from other tenants only ever slows a run down: bursts of
half a second to a few seconds at 1.5x, and stretches of ten or twenty
seconds at 1.2x.  A whole-run percentile or mean carries them into the
result.  Blocks of operations alone cannot tell a burst from a block
that drew expensive queries, so interference is measured where it
happens: :func:`probe` times a fixed kernel between blocks of about
a tenth of a second, a block is as quiet as the slower of the two
probes around it, and every statistic is taken over the operations of
the quiet blocks, pooled.  The box has two states, seconds to minutes
long, in which the kernel takes 1x and 1.7x: blocks within ``FAST`` of
the phase's best probe are the quiet ones if they hold a tenth of the
operations; if the fast state hardly showed, the quietest
``QUIET_SHARE`` of the blocks are.  Probes are outside every timed
interval.  (Waiting for a burst to pass does not work here:
after a sleep the processor comes back slow, and the kernel reads as
disturbed for as long as one keeps sleeping.)

A set-up is too long for a block; it is repeated and reported at its
lower quartile (:func:`quiet_low`).
"""

import time

BLOCK_SECONDS = 0.1
QUIET_SHARE = 0.4
FAST = 1.25
_CELLS = bytes(range(256)) * (1 << 16)


def _kernel():
    """About 2 ms of dependent reads scattered over 16 MB: slowed by a
    busy sibling hardware thread and by a neighbour's cache traffic
    alike, which is what slows the catalog."""
    cells, position, total = _CELLS, 1, 0
    for _ in range(12000):
        position = (position * 1103515245 + 12345) & 0xFFFFFF
        total += cells[position]
    return total


def probe():
    """Seconds the kernel takes right now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def percentile(values, q):
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quiet_low(values):
    """For a few repeats of something long: the lower quartile."""
    return percentile(values, 0.25)


class Block:
    """Operations between two probes: ``(kind, seconds)`` in order, and
    the wall time they took together."""

    __slots__ = ("noise", "start", "end", "ops")

    def __init__(self, noise):
        self.noise = noise
        self.ops = []
        self.start = self.end = time.perf_counter()

    def close(self, noise):
        self.noise = max(self.noise, noise)


class Phase:
    """What one closed loop measured, block by block."""

    def __init__(self):
        self.blocks = []
        self.open()

    def open(self):
        """Probe, then start the next block (closing the current one)."""
        noise = probe()
        if self.blocks:
            self.blocks[-1].close(noise)
        self.blocks.append(Block(noise))
        self.current = self.blocks[-1]

    def record(self, kind, start, end, alone=False):
        """``alone`` gives the operation a block, and probes, of its own."""
        block = self.current
        block.ops.append((kind, end - start))
        block.end = end
        if alone or end - block.start >= BLOCK_SECONDS:
            self.open()

    def finish(self):
        self.current.close(probe())
        self.blocks = [block for block in self.blocks if block.ops]
        return self

    @classmethod
    def merged(cls, phases):
        """The blocks of several finished phases as one."""
        phase = cls.__new__(cls)
        phase.blocks = [block for part in phases for block in part.blocks]
        return phase

    def seconds(self, kind=None):
        """Every operation's duration (of ``kind``), quiet or not."""
        return [seconds for block in self.blocks for k, seconds in block.ops
                if kind in (None, k)]

    def count(self, kind=None):
        return len(self.seconds(kind))


def quiet_blocks(blocks, kind=None):
    """The blocks whose operations (of ``kind``) count: those taken in
    the fast state, or else the quietest that together hold
    ``QUIET_SHARE`` of the operations."""
    holding = sorted(
        ((block, sum(1 for k, _s in block.ops if kind in (None, k)))
         for block in blocks),
        key=lambda pair: pair[0].noise)
    holding = [(block, count) for block, count in holding if count]
    total = sum(count for _block, count in holding)
    best = min(block.noise for block in blocks)
    fast = [(block, count) for block, count in holding
            if block.noise <= FAST * best]
    if sum(count for _block, count in fast) >= max(20, 0.1 * total):
        return [block for block, _count in fast]
    chosen, have = [], 0
    for block, count in holding:
        if have < QUIET_SHARE * total:
            chosen.append(block)
            have += count
    return chosen


def durations(phases, kind):
    """Seconds of every ``kind`` operation in the quiet blocks of the
    first phase that ran any, or None."""
    for phase in phases:
        if phase.count(kind):
            return [seconds for block in quiet_blocks(phase.blocks, kind)
                    for k, seconds in block.ops if k == kind]
    return None


def wall_rate(blocks):
    """Operations per second of wall time over the quiet blocks."""
    chosen = quiet_blocks(blocks)
    return (sum(len(block.ops) for block in chosen)
            / sum(block.end - block.start for block in chosen))
