"""Host-speed probe: a fixed pure-Python loop timed between operations.

The measuring host's speed changes in phases that last from seconds to
minutes, by 20-30%, with the benchmark's CPU time equal to its wall
time throughout: other tenants contend for the shared cache and memory,
so the CPU itself runs slower.  A run's median wall time therefore says
as much about the phase it fell in as about the program.

The timed run gives the workload a :class:`Probe` as its tracer.  The
probe runs one burst of :func:`reference_work` before every operation
of a body, and the run adds one after the last, so the bursts sample
the same phases as the operations they bracket.  The run then divides
each body's wall time (bursts left out) by the mean burst of that body
and multiplies by :data:`REFERENCE_S`: the result is the body's time on
a host where one burst takes :data:`REFERENCE_S`.

:func:`reference_work` imports nothing from the program, so no change
to the program moves it; only the host and the interpreter do.  Its
random byte reads over a buffer far larger than a core's private cache
make it slow down with the same phases as the simulator: on the cold
path's operations, the log of an operation's slow-down against the log
of the adjacent bursts' slow-down has a slope of 0.88 and a correlation
of 0.73 (perfbench/README.md has the other loops tried).  Tight
arithmetic loops, or dict work that stays in cache, slow down about
twice as much in the same phases.
"""

from __future__ import annotations

import mmap
from time import perf_counter
from typing import List

from tracing import NullTracer

#: Bytes of the buffer the reference loop reads at random.
BUFFER_BYTES = 1 << 24
#: Reads of one burst: about 0.07 s on a 2-vCPU cloud VM with Python
#: 3.11 in a fast phase.
BURST_READS = 250_000
#: Seconds of one burst on the reference host, by definition.
REFERENCE_S = 0.1
#: What :func:`reference_work` returns on :func:`make_buffer`'s buffer;
#: anything else means the loop did not run as written.
CHECKSUM = 31_875_480


def make_buffer() -> mmap.mmap:
    """The reference loop's buffer: byte ``i`` holds ``i % 256``.  It is
    an anonymous mapping of its own, so it adds exactly its size to the
    resident set wherever the allocator's heap stands."""
    buffer = mmap.mmap(-1, BUFFER_BYTES)
    block = bytes(range(256)) * 256
    for _ in range(BUFFER_BYTES // len(block)):
        buffer.write(block)
    return buffer


def reference_work(buffer, reads: int = BURST_READS) -> int:
    """Sum of *reads* bytes of *buffer* at fixed pseudo-random offsets."""
    mask = len(buffer) - 1
    total = 0
    x = 1
    for _ in range(reads):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += buffer[x & mask]
    return total


class Probe(NullTracer):
    """The timed run's tracer: no spans, one burst before every
    operation.  ``samples`` holds the seconds of every burst so far."""

    def __init__(self) -> None:
        self.buffer = make_buffer()
        self.samples: List[float] = []

    def close(self) -> None:
        self.buffer.close()

    def between_ops(self) -> None:
        start = perf_counter()
        total = reference_work(self.buffer)
        self.samples.append(perf_counter() - start)
        if total != CHECKSUM:
            raise RuntimeError(f"reference loop summed {total}, not {CHECKSUM}")


def normalized(wall: float, bursts: List[float]) -> float:
    """*wall* seconds measured while bursts took *bursts* seconds, as
    seconds on a host where one burst takes :data:`REFERENCE_S`."""
    return wall * REFERENCE_S * len(bursts) / sum(bursts)
