"""Speculative batch coherence — the LazyPIM execution mode.

The paper kills unnecessary coherence traffic *pessimistically*: software
tells the cache, per access, which fetches and invalidations are useless
(DW/ER/RP/RI).  LazyPIM (PAPERS.md) attacks the same traffic
*optimistically*: accesses inside a batch execute without any per-access
coherence transactions while compressed read/write signatures accumulate;
at the batch boundary the signatures are compared, a conflict-free batch
settles its deferred coherence in one bulk round, and a conflicting
batch rolls back and re-executes under the ordinary per-access protocol.

The adaptation to this simulator keeps the controller exact and defers
only the *pricing*:

* **Attempt.**  During a speculative batch the system's ``_bus`` binding
  (the single point every backend charge flows through — see
  :mod:`repro.core.interconnect`) is swapped for a recorder that logs
  each would-be transaction and charges nothing.  Handlers still run in
  full, so cache states, lock directories and data values evolve exactly
  as they would pessimistically — speculation changes *when coherence is
  paid for*, never what the protocol does.  Bus-free work (hit service,
  lock spins, shared-memory busy time) is charged live as always.
* **Signatures.**  Per-PE read and write sets are compressed into
  ``signature_bits``-wide masks, one bit per block hashed by its low
  ``log2(signature_bits)`` bits.  Signatures are a pure function of the
  reference stream, so the batch's conflict verdict is computed from the
  trace columns before the attempt runs (the hardware would accumulate
  the same masks access by access).  Truncating a wider mask yields the
  narrower one, so any two blocks that collide at width ``2w`` also
  collide at width ``w`` — the false-positive rate is monotone
  non-increasing in the width, a property the test-suite checks.
* **Commit.**  A conflict-free batch replays its deferred transactions
  through the real ``interconnect.transact`` in recorded order — the
  bulk settlement round, priced through the existing seam so the
  cycle-ledger identity of :mod:`repro.obs.metrics` holds by
  construction.  Per-block invalidation rounds are coalesced: the
  batch's write signature is broadcast once at commit and every cache
  derives all of its invalidations from it, so the first deferred
  block-invalidation is charged (it *is* the signature broadcast) and
  the rest are counted in ``batch_elided_invalidations`` instead of
  charged.  Data-moving patterns (swap-ins, cache-to-cache transfers,
  write-throughs) and the lock protocol's block-less broadcast rounds
  are never elided — speculation amortizes coherence *control*, not
  data movement or lock liveness.
* **Rollback.**  A conflicting batch takes a batch-scoped undo record
  (:class:`_UndoRecord`) before the attempt, runs the attempt anyway
  (the machinery under test), rewinds in place and re-executes the
  batch pessimistically.  A reference can only fill (and evict from)
  the set its block indexes in the issuing PE's cache, and elsewhere
  only change or drop copies of its own block, so the record holds, per
  PE, the sets that PE's references index and the lone copies of the
  batch's other blocks (plus each cache's LRU clock), the presence-map
  and directory entries and, under data tracking, the memory words of
  those blocks, the stats counters, the interconnect timeline and a
  cluster shard's network state — O(batch), not O(system).  Rollbacks must be invisible in final state — the
  differential oracle (:mod:`repro.verify.oracle`) replays the
  speculative path against flat memory to enforce exactly that.  The
  attempt's wasted local work is not charged (its counters are rewound
  with the rest of the state); the rollback penalty that *is* modeled is
  the pessimistic re-execution plus the ``batch_rollbacks`` count.

Every batch — attempt and pessimistic re-execution alike — runs through
the interpreted dispatch loop (:func:`repro.core.replay._interpret`, the
loop ``replay(kernel="interpreted")`` runs), with its hit handles bound
once per driver and op/area codes validated once per
:meth:`SpeculativeDriver.feed`.  Lock barriers keep batches short (on
the 150K-reference ``tri`` prefix 41 references on average, 14 at the
median), and over so few references per-call set-up dominates: the
generated kernel's numpy preparation and cross-PE mirror rebuild cost
about 3x the interpreted loop per batch, and calling ``replay()`` per
batch ran that prefix 15% slower than the bound loop.  With oracle
hooks (``values``/``on_result``) batches take the per-access loop.  The
``kernel`` argument of :func:`replay_speculative` therefore only
selects the loop of the ``batch_refs <= 1`` short-circuit.

Batch boundaries: every ``batch_refs`` references, with lock-directory
operations (``LR``/``UW``/``U``, and any flagged contended reference)
forcing an early commit — they execute non-speculatively between
batches, because lock hand-offs are ordering-sensitive by design (an LH
response or UL broadcast cannot be deferred).  A ``batch_refs`` of 1
degenerates to the pessimistic protocol (a one-reference batch settles
before any concurrent conflict can arise), which
:func:`replay_speculative` short-circuits outright so the mode is
counter-identical to the ordinary path — the golden-identity gate.

On a home-node directory backend the deferred transactions carry no
request resolution (the entry table would be resolving against states
the batch has already moved past); residency notes stay live during the
attempt, every block a batch touches is recorded, and the settlement
resynchronizes those entries from cache residency — the directory's own
completion rule — so ``DirectoryInterconnect.check()`` holds at every
batch boundary.

Clustered replay composes per cluster: each cluster's shard runs its own
independent batch engine (speculation is a per-bus mechanism), so the
``split_trace`` determinism argument of :mod:`repro.cluster.replay`
carries over unchanged.
"""

from __future__ import annotations

import re
from itertools import repeat
from operator import rshift
from typing import Callable, List, Optional, Tuple

from repro.core.config import SimulationConfig
from repro.core.replay import (
    ReplayBlockedError,
    _hit_handles,
    _interpret,
    _validate_codes,
    invariant_check_interval,
    replay,
    replay_access_driven,
)
from repro.core.states import BusPattern
from repro.core.stats import SystemStats
from repro.core.system import BLOCKED, PIMCacheSystem
from repro.trace.buffer import TraceBuffer
from repro.trace.events import LOCK_OPS, Op

__all__ = [
    "DEFAULT_BATCH_REFS",
    "DEFAULT_SIGNATURE_BITS",
    "MODES",
    "SpeculativeDriver",
    "batch_signatures",
    "plan_batches",
    "replay_speculative",
    "signatures_conflict",
]

#: Execution modes accepted by the replay entry points and the CLI.
MODES = ("pessimistic", "lazypim")

#: Default batch length, in references across all PEs.
DEFAULT_BATCH_REFS = 256

#: Default signature width in bits (must be a power of two).
DEFAULT_SIGNATURE_BITS = 256

_INVALIDATION = int(BusPattern.INVALIDATION)
_BARRIER_OP_RE = re.compile(
    b"[" + b"".join(re.escape(bytes([int(op)])) for op in LOCK_OPS) + b"]"
)
_FLAGGED_RE = re.compile(b"[^\\x00]")
_W, _DW = int(Op.W), int(Op.DW)


def _barriers(buffer: TraceBuffer, start: int, stop: int) -> List[int]:
    """Indices in ``[start, stop)`` of lock operations and flagged
    references — the batch barriers (found by a C-speed byte scan of
    the one-byte op and flag columns)."""
    _, op_col, _, _, flags_col = buffer.columns()
    found = {m.start() for m in _BARRIER_OP_RE.finditer(op_col, start, stop)}
    found.update(m.start() for m in _FLAGGED_RE.finditer(flags_col, start, stop))
    return sorted(found)


def plan_batches(
    buffer: TraceBuffer,
    batch_refs: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> List[Tuple[int, int, bool]]:
    """Segment ``[start, stop)`` into ``(lo, hi, speculative)`` spans.

    Speculative spans are maximal barrier-free runs chopped at
    ``batch_refs``; every lock operation (and every flagged contended
    reference) becomes its own non-speculative singleton span.  The
    segmentation of a suffix depends only on the suffix itself, so
    chunked (streaming) execution reproduces the monolithic boundaries.
    """
    if stop is None:
        stop = len(buffer)
    segments: List[Tuple[int, int, bool]] = []
    lo = start
    for i in _barriers(buffer, start, stop):
        for s in range(lo, i, batch_refs):
            segments.append((s, min(s + batch_refs, i), True))
        segments.append((i, i + 1, False))
        lo = i + 1
    for s in range(lo, stop, batch_refs):
        segments.append((s, min(s + batch_refs, stop), True))
    return segments


def batch_signatures(
    buffer: TraceBuffer,
    start: int,
    stop: int,
    n_pes: int,
    block_shift: int,
    signature_bits: int,
) -> Tuple[List[int], List[int]]:
    """Per-PE compressed read/write signatures of ``[start, stop)``.

    One bit per referenced block, hashed by the block number's low
    ``log2(signature_bits)`` bits — the truncation structure that makes
    the false-positive rate monotone in the width.
    """
    mask = signature_bits - 1
    read_sigs = [0] * n_pes
    write_sigs = [0] * n_pes
    pe_col, op_col, _, addr_col, _ = buffer.columns()
    for pe, op, addr in zip(
        pe_col[start:stop], op_col[start:stop], addr_col[start:stop]
    ):
        if op == _W or op == _DW:
            write_sigs[pe] |= 1 << ((addr >> block_shift) & mask)
        else:
            read_sigs[pe] |= 1 << ((addr >> block_shift) & mask)
    return read_sigs, write_sigs


def signatures_conflict(
    read_sigs: List[int], write_sigs: List[int]
) -> bool:
    """True when any PE's write signature intersects another PE's
    read-or-write signature — the LazyPIM commit test."""
    for j, wj in enumerate(write_sigs):
        if not wj:
            continue
        for i in range(len(write_sigs)):
            if i != j and wj & (read_sigs[i] | write_sigs[i]):
                return True
    return False


class _DeferredBus:
    """Transaction recorder installed as ``system._bus`` during an
    attempt: logs ``(pe, pattern, area, block)`` and charges nothing."""

    __slots__ = ("log", "touched")

    def __init__(self):
        self.log: List[Tuple[int, int, int, int]] = []
        self.touched: set = set()

    def __call__(self, pe, pattern, area, block=-1, req=0, remotes=()):
        self.log.append((pe, pattern, area, block))
        if block >= 0:
            self.touched.add(block)
        return 0


class _DeferredNotes:
    """Residency-note proxy installed as ``system._dir`` during an
    attempt on a directory backend.

    The notes still reach the backend — an entry table frozen for a
    whole batch could lose a ``note_drop``/``note_exclusive`` it needs
    — but every touched block is recorded so the settlement can
    resynchronize its entry from residency (stale masks are possible
    mid-batch because the deferred transactions resolve nothing).
    """

    __slots__ = ("_backend", "_touched")

    def __init__(self, backend, touched):
        self._backend = backend
        self._touched = touched

    def note_drop(self, block: int, pe: int) -> None:
        self._touched.add(block)
        self._backend.note_drop(block, pe)

    def note_exclusive(self, pe: int, block: int) -> None:
        self._touched.add(block)
        self._backend.note_exclusive(pe, block)

    def note_flush(self) -> None:
        self._backend.note_flush()


#: Marks a memory word that was absent (never written) when recorded.
_ABSENT = object()

_STAT_MATRICES = ("refs", "hits")
_STAT_LISTS = (
    "pattern_counts",
    "pattern_cycles",
    "bus_cycles_by_area",
    "command_counts",
    "pe_cycles",
)
_STAT_SCALARS = SystemStats._SUM_FIELDS + ("lock_dir_max_occupancy",)


class _UndoRecord:
    """Everything a doomed attempt over *segment* can change, taken
    before the attempt and put back in place by :meth:`restore`.

    A reference fills a block, and evicts a victim, only in the issuing
    PE's cache and only in the set the block indexes; in other caches it
    can only change or drop the copy of its own block.  So the record
    holds, per cache, the membership of the sets that PE's own
    references index and the lone copies of the segment's other blocks,
    plus the mutable fields of every line in them (``state``, ``lru``
    and ``data``, copied — the system mutates it in place; ``area`` is
    fixed at fill) and every cache's LRU clock.  The presence-map and
    directory entries and (under data tracking) the memory words of
    every recorded block follow.  Counters, the interconnect timeline
    and a cluster shard's network interface are global and recorded
    whole.

    Lock directories, the locked-word map and busy-wait markers are not
    recorded: a speculative segment holds no lock operation, and the
    only other writer — a request inhibited by a remote lock — returns
    ``BLOCKED``, which raises out of the replay.

    Restoring reinstates the recorded line, entry and stats objects, so
    every alias into the live system stays valid.
    """

    __slots__ = (
        "system",
        "fields",
        "sets",
        "lone",
        "ticks",
        "holders",
        "entries",
        "words",
        "stats",
        "free_at",
        "network",
    )

    def __init__(self, system, segment: TraceBuffer):
        self.system = system
        caches = system.caches
        set_mask = caches[0]._set_mask
        set_shift = caches[0]._set_shift
        shift = system._block_shift
        pe_col, _, _, addr_col, _ = segment.columns()
        pairs = set(zip(pe_col, map(rshift, addr_col, repeat(shift))))
        blocks = {block for _, block in pairs}
        own = [set() for _ in caches]
        for pe, block in pairs:
            own[pe].add(block & set_mask)
        holders = system._holders
        fields = []
        lone = []
        for block in blocks:
            for pe in holders.get(block, ()):
                if block & set_mask not in own[pe]:
                    line = caches[pe]._lines[block]
                    lone.append((caches[pe], block, line))
                    fields.append((
                        line, line.state, line.lru,
                        None if line.data is None else list(line.data),
                    ))
        sets = []
        for cache, indices in zip(caches, own):
            buckets = cache._sets
            for index in indices:
                bucket = buckets[index]
                sets.append((cache, index, dict(bucket)))
                for tag, line in bucket.items():
                    blocks.add((tag << set_shift) | index)
                    fields.append((
                        line, line.state, line.lru,
                        None if line.data is None else list(line.data),
                    ))
        self.fields = fields
        self.sets = sets
        self.lone = lone
        self.ticks = [cache._tick for cache in caches]
        get = holders.get
        self.holders = [
            (block, None if (pes := get(block)) is None else set(pes))
            for block in blocks
        ]
        entries = getattr(system.interconnect, "entries", None)
        self.entries = None
        if entries is not None:
            self.entries = []
            for block in blocks:
                entry = entries.get(block)
                saved = None if entry is None else (
                    entry.state, entry.owner, entry.sharers, entry.transient
                )
                self.entries.append((block, entry, saved))
        self.words = None
        if system.track_data:
            memory = system.memory
            width = system._block_words
            self.words = [
                (addr, memory.get(addr, _ABSENT))
                for block in blocks
                for addr in range(block << shift, (block << shift) + width)
            ]
        stats = system.stats
        self.stats = (
            [[list(row) for row in getattr(stats, name)]
             for name in _STAT_MATRICES],
            [list(getattr(stats, name)) for name in _STAT_LISTS],
            [getattr(stats, name) for name in _STAT_SCALARS],
        )
        self.free_at = system.interconnect.free_at
        network = getattr(system, "network", None)
        self.network = None
        if network is not None:
            net_stats = network.stats
            self.network = (
                network.link_free_at,
                [getattr(net_stats, name) for name in net_stats._SUM_FIELDS],
                list(net_stats.forwards_by_home),
            )

    def restore(self) -> None:
        system = self.system
        for line, state, lru, data in self.fields:
            line.state = state
            line.lru = lru
            if data is not None:
                line.data[:] = data
        for cache, index, saved in self.sets:
            bucket = cache._sets[index]
            if bucket != saved:  # a fill, eviction or drop happened
                cache_lines = cache._lines
                set_shift = cache._set_shift
                for tag in bucket:
                    del cache_lines[(tag << set_shift) | index]
                bucket.clear()
                bucket.update(saved)
                for tag, line in saved.items():
                    cache_lines[(tag << set_shift) | index] = line
        for cache, block, line in self.lone:
            if block not in cache._lines:
                bucket = cache._sets[block & cache._set_mask]
                bucket[block >> cache._set_shift] = line
                cache._lines[block] = line
        for cache, tick in zip(system.caches, self.ticks):
            cache._tick = tick
        holders = system._holders
        for block, saved in self.holders:
            if saved is None:
                holders.pop(block, None)
            else:
                holders[block] = saved
        if self.entries is not None:
            entries = system.interconnect.entries
            for block, entry, saved in self.entries:
                if entry is None:
                    entries.pop(block, None)
                else:
                    (entry.state, entry.owner, entry.sharers,
                     entry.transient) = saved
                    entries[block] = entry
        if self.words is not None:
            memory = system.memory
            for addr, value in self.words:
                if value is _ABSENT:
                    memory.pop(addr, None)
                else:
                    memory[addr] = value
        stats = system.stats
        matrices, lists, scalars = self.stats
        for name, saved in zip(_STAT_MATRICES, matrices):
            for row, saved_row in zip(getattr(stats, name), saved):
                row[:] = saved_row
        for name, saved in zip(_STAT_LISTS, lists):
            getattr(stats, name)[:] = saved
        for name, value in zip(_STAT_SCALARS, scalars):
            setattr(stats, name, value)
        system.interconnect.free_at = self.free_at
        if self.network is not None:
            network = system.network
            link_free_at, counters, by_home = self.network
            network.link_free_at = link_free_at
            net_stats = network.stats
            for name, value in zip(net_stats._SUM_FIELDS, counters):
                setattr(net_stats, name, value)
            net_stats.forwards_by_home[:] = by_home


class SpeculativeDriver:
    """The batch/commit/rollback state machine over one live system.

    Feed it references (:meth:`feed` accepts any chunking, including one
    call with the whole trace) and :meth:`flush` the tail at the end.
    Complete batches execute as they become available; an incomplete
    barrier-free tail (always shorter than ``batch_refs``) is buffered
    until more references arrive — the seam :mod:`repro.serve.stream`
    uses to checkpoint only at batch-commit points.
    """

    def __init__(
        self,
        system,
        batch_refs: int = DEFAULT_BATCH_REFS,
        signature_bits: int = DEFAULT_SIGNATURE_BITS,
        values: Optional[Callable[[int], int]] = None,
        on_result: Optional[Callable] = None,
        check_every: Optional[int] = None,
    ):
        if batch_refs < 1:
            raise ValueError(f"batch_refs must be >= 1, got {batch_refs}")
        if signature_bits < 2 or signature_bits & (signature_bits - 1):
            raise ValueError(
                f"signature_bits must be a power of two >= 2, "
                f"got {signature_bits}"
            )
        if not hasattr(system, "_bus"):
            raise TypeError(
                "speculative replay needs a single-bus system (flat, or a "
                "per-cluster shard system); drive a clustered run through "
                "replay_clustered(mode='lazypim') instead"
            )
        self.system = system
        self.batch_refs = batch_refs
        self.signature_bits = signature_bits
        self.values = values
        self.on_result = on_result
        self._check_every = check_every or 0
        self._checked = 0
        self._pending = TraceBuffer(system.n_pes)
        #: Global index of the first pending (not yet executed) reference.
        self._base = 0
        #: References executed (committed or pessimistically replayed).
        self.refs_done = 0
        self._log: List[Tuple[int, int, int, int]] = []
        self._touched: set = set()
        #: The interpreted loop's hit handles, bound once per system.
        self._handles = None

    # -- feeding ---------------------------------------------------------

    def feed(self, buffer: TraceBuffer) -> None:
        """Append references and execute every complete batch."""
        if len(buffer):
            _validate_codes(buffer)
            self._pending.extend(buffer)
        self._drain(final=False)

    def flush(self) -> SystemStats:
        """Execute the buffered tail as the final (short) batch."""
        self._drain(final=True)
        if self._check_every and self.refs_done:
            self.system.check_invariants()
        return self.system.stats

    def _drain(self, final: bool) -> None:
        pending = self._pending
        n = len(pending)
        batch = self.batch_refs
        hooked = self.values is not None or self.on_result is not None
        access = self.system.access
        pe_col, op_col, area_col, addr_col, flags_col = pending.columns()
        lo = 0
        for i in _barriers(pending, 0, n):
            for s in range(lo, i, batch):
                self._run_batch(s, min(s + batch, i))
            # The barrier itself runs non-speculatively: one dispatch
            # with full bookkeeping.
            if hooked:
                self._drive(pending.slice(i, i + 1), self._base + i, True)
            else:
                pe, op, area, addr = pe_col[i], op_col[i], area_col[i], addr_col[i]
                if access(pe, op, area, addr, 0, flags_col[i])[0] == BLOCKED:
                    raise ReplayBlockedError(self._base + i, pe, op, area, addr)
            self._advance(1)
            lo = i + 1
        # [lo, n) is a barrier-free tail: full batches run now, the
        # remainder waits for more references (or the final flush).
        s = lo
        while n - s >= batch:
            self._run_batch(s, s + batch)
            s += batch
        if final and s < n:
            self._run_batch(s, n)
            s = n
        if s:
            self._pending = pending.slice(s, n)
            self._base += s

    # -- one segment -----------------------------------------------------

    def _run_batch(self, start: int, stop: int) -> None:
        """Execute pending references ``[start, stop)`` speculatively."""
        system = self.system
        segment = self._pending.slice(start, stop)
        base = self._base + start
        # The commit test compares each PE's writes with *other* PEs'
        # accesses, so a batch without a write or issued by a single PE
        # cannot conflict and its signatures need not be built: on the
        # 150K-reference tri prefix, 2,796 of 3,478 batches.
        pe_col, op_col = segment.columns()[:2]
        if (
            (_W in op_col or _DW in op_col)
            and len(set(pe_col)) > 1
            and signatures_conflict(*batch_signatures(
                segment, 0, stop - start, system.n_pes,
                system._block_shift, self.signature_bits,
            ))
        ):
            self._rollback_and_replay(segment, base)
        else:
            self._attempt(segment, base, observed=True)
            self._settle()
            system.stats.batch_commits += 1
        self._advance(stop - start)

    def _advance(self, count: int) -> None:
        self.refs_done += count
        if self._check_every:
            due = self.refs_done // self._check_every
            if due > self._checked:
                self._checked = due
                self.system.check_invariants()

    def _rollback_and_replay(self, segment: TraceBuffer, base: int) -> None:
        system = self.system
        undo = _UndoRecord(system, segment)
        # The doomed attempt still runs: the rollback machinery is the
        # thing under test, and real hardware only learns of the
        # conflict at commit time.
        self._attempt(segment, base, observed=False)
        undo.restore()
        system.stats.batch_rollbacks += 1
        self._drive(segment, base, observed=True)

    def _attempt(self, segment: TraceBuffer, base: int, observed: bool) -> None:
        system = self.system
        recorder = _DeferredBus()
        saved_bus = system._bus
        saved_dir = system._dir
        system._bus = recorder
        if saved_dir is not None:
            system._dir = _DeferredNotes(saved_dir, recorder.touched)
        try:
            self._drive(segment, base, observed=observed)
        finally:
            system._bus = saved_bus
            system._dir = saved_dir
        self._log = recorder.log
        self._touched = recorder.touched

    def _drive(self, segment: TraceBuffer, base: int, observed: bool) -> None:
        """Execute a segment through the interpreted dispatch loop.

        With oracle hooks installed the per-access loop runs instead
        (global indices reconstructed from *base*); ``observed=False``
        keeps ``on_result`` quiet during a doomed attempt, whose results
        the rollback erases.  Invariant checking stays off inside a
        segment (the directory's entry table is resynchronized at
        settlement, not before).
        """
        values = self.values
        on_result = self.on_result
        if values is None and on_result is None:
            system = self.system
            handles = self._handles
            if handles is None or handles[0] is not system._op_table:
                handles = self._handles = _hit_handles(system)
            blocked = _interpret(system, segment, handles)
            if blocked is not None:
                raise ReplayBlockedError(-1, *blocked)
            return
        vfn = None
        if values is not None:
            vfn = lambda i, _b=base: values(_b + i)  # noqa: E731
        rfn = None
        if on_result is not None and observed:
            rfn = (
                lambda i, pe, op, area, addr, result, _b=base:
                on_result(_b + i, pe, op, area, addr, result)
            )
        try:
            replay_access_driven(
                segment, self.system, values=vfn, on_result=rfn
            )
        except ReplayBlockedError as error:
            raise ReplayBlockedError(
                base + error.index, error.pe, error.op, error.area,
                error.address,
            ) from None

    # -- commit ----------------------------------------------------------

    def _settle(self) -> None:
        """Replay the deferred transactions as the bulk settlement round."""
        system = self.system
        stats = system.stats
        transact = system.interconnect.transact
        settled_broadcast = False
        settles = 0
        elided = 0
        for pe, pattern, area, block in self._log:
            if pattern == _INVALIDATION and block >= 0:
                # Per-block invalidations coalesce into the batch's one
                # signature broadcast: the first is charged (it *is* the
                # broadcast), the rest ride it.  Block-less invalidation
                # rounds (lock-spin episode charges) are the lock
                # protocol's liveness mechanism and never coalesce.
                if settled_broadcast:
                    elided += 1
                    continue
                settled_broadcast = True
            transact(pe, pattern, area)
            settles += 1
        stats.signature_settles += settles
        stats.batch_elided_invalidations += elided
        self._log = []
        if system._dir is not None:
            self._resync(system._dir)
        self._touched = set()

    def _resync(self, backend) -> None:
        """Resynchronize the directory entries of every touched block
        from cache residency (the backend's own completion rule)."""
        from repro.core.protocol.directory import DirectoryEntry

        entries = backend.entries
        for block in self._touched:
            state, owner, sharers = backend._residency(block)
            if sharers:
                entry = entries.get(block)
                if entry is None:
                    entries[block] = DirectoryEntry(state, owner, sharers)
                else:
                    entry.state = state
                    entry.owner = owner
                    entry.sharers = sharers
                    entry.transient = None
            else:
                entries.pop(block, None)


def replay_speculative(
    buffer: TraceBuffer,
    config: Optional[SimulationConfig] = None,
    n_pes: Optional[int] = None,
    check_invariants_every: Optional[int] = None,
    system: Optional[PIMCacheSystem] = None,
    kernel: Optional[str] = None,
    batch_refs: int = DEFAULT_BATCH_REFS,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    values: Optional[Callable[[int], int]] = None,
    on_result: Optional[Callable] = None,
    force_speculation: bool = False,
) -> SystemStats:
    """Replay *buffer* under speculative batch coherence.

    Mirrors :func:`repro.core.replay.replay` (same config/system seams,
    same invariant toggle) plus the oracle hooks of
    :func:`~repro.core.replay.replay_access_driven` and the two batch
    knobs.  ``batch_refs <= 1`` short-circuits to the pessimistic path
    outright — a one-reference batch settles before any concurrent
    conflict can arise, so the degenerate mode *is* the per-access
    protocol and stays bit-identical to it, speculative counters at
    zero.  *kernel* selects the replay loop of that short-circuit only:
    speculative batches always run the interpreted loop (see the
    module docstring).  ``force_speculation=True`` (tests only) runs the full
    defer/settle machinery anyway, which the property suite uses to pin
    deferral + immediate settlement counter-identical to live charging.
    """
    if system is None:
        if config is None:
            config = SimulationConfig()
        pes = n_pes if n_pes is not None else buffer.n_pes
        system = PIMCacheSystem(config, pes)
    if check_invariants_every is None:
        check_invariants_every = invariant_check_interval()
    if batch_refs <= 1 and not force_speculation:
        if values is not None or on_result is not None:
            return replay_access_driven(
                buffer, system, values=values, on_result=on_result,
                check_invariants_every=check_invariants_every,
            )
        return replay(
            buffer, system=system, kernel=kernel,
            check_invariants_every=check_invariants_every or 0,
        )
    driver = SpeculativeDriver(
        system,
        batch_refs=batch_refs,
        signature_bits=signature_bits,
        values=values,
        on_result=on_result,
        check_every=check_invariants_every,
    )
    driver.feed(buffer)
    return driver.flush()
