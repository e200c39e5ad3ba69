"""Trace-driven replay: run a captured reference stream through a cache.

The paper's tools run execution-driven (emulator and cache simulator in
lockstep).  For parameter sweeps that is wasteful: the workload's
reference stream does not depend on the cache geometry, so this module
replays one captured :class:`~repro.trace.buffer.TraceBuffer` against
any number of :class:`~repro.core.config.SimulationConfig` variants.

Lock conflicts cannot re-arise during replay (the captured global order
already serialized them), so contended operations carry a trace flag and
the system re-enacts the LH response and UL broadcast from it.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import repeat
from operator import add, mul
from typing import Iterable, Optional

from repro.core.config import SimulationConfig
from repro.core.protocol import codegen
from repro.core.stats import SystemStats
from repro.core.system import BLOCKED, N_AREAS, N_OPS, PIMCacheSystem
from repro.trace.buffer import TraceBuffer
from repro.trace.events import AREA_NAMES, OP_NAMES, Op

try:  # pragma: no cover - numpy is an optional dependency
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less hosts
    _np = None

#: Replay kernel choices accepted by :func:`replay` (and the
#: ``REPRO_REPLAY_KERNEL`` environment override).
KERNELS = ("auto", "generated", "interpreted")

#: Default check period (in references) for ``REPRO_CHECK_INVARIANTS=1``.
DEFAULT_INVARIANT_INTERVAL = 4096


class ReplayBlockedError(RuntimeError):
    """A replayed reference hit a remotely held lock (``BLOCKED``).

    Captured traces are globally serialized at generation time, so a
    blocked reference means the trace was hand-built or corrupted; the
    offending trace index, PE, operation and address are attached for
    diagnosis.
    """

    def __init__(self, index: int, pe: int, op: int, area: int, address: int):
        self.index = index
        self.pe = pe
        self.op = op
        self.area = area
        self.address = address
        super().__init__(
            f"replay blocked at trace index {index}: PE{pe} "
            f"{OP_NAMES[op]} {AREA_NAMES[area]}[{address:#x}] hit a "
            "remotely held lock; captured traces serialize lock "
            "conflicts, so this trace was hand-built or corrupted"
        )


def invariant_check_interval(
    default: int = DEFAULT_INVARIANT_INTERVAL,
) -> Optional[int]:
    """Parse the ``REPRO_CHECK_INVARIANTS`` debug toggle.

    Unset / ``0`` / ``off`` disables periodic invariant checking (the
    default); ``1`` / ``on`` enables it at *default* granularity; any
    other integer is used as the period itself (references for replay,
    scheduler sweeps for execution-driven runs).
    """
    raw = os.environ.get("REPRO_CHECK_INVARIANTS")
    if raw is None:
        return None
    value = raw.strip().lower()
    if value in ("", "0", "off", "no", "false", "none"):
        return None
    if value in ("1", "on", "yes", "true"):
        return default
    try:
        period = int(value)
    except ValueError:
        return default
    return max(1, period)


def _validate_codes(buffer: TraceBuffer) -> None:
    _, op_col, area_col, _, _ = buffer.columns()
    if len(buffer) and not (
        0 <= min(op_col) <= max(op_col) < N_OPS
        and 0 <= min(area_col) <= max(area_col) < N_AREAS
    ):
        raise ValueError("trace contains an out-of-range op or area code")


def replay_access_driven(
    buffer: TraceBuffer,
    system,
    values=None,
    on_result=None,
    check_invariants_every: Optional[int] = None,
) -> SystemStats:
    """Drive *buffer* through ``system.access`` one reference at a time.

    The slow, exact replay loop: per-access dispatch with full
    bookkeeping, raising :class:`ReplayBlockedError` with the trace
    position of a blocked reference, and running
    ``system.check_invariants()`` every *check_invariants_every*
    references (and once more at the end).  *system* is anything with
    the access-system surface (``access``, ``check_invariants``,
    ``stats``) — a :class:`PIMCacheSystem` or a
    :class:`~repro.cluster.system.ClusteredSystem`.

    Two hooks exist for the differential oracle in
    :mod:`repro.verify.oracle`:

    * ``values(index) -> int`` supplies the data word a write-like
      reference stores (traces carry no value column, so the oracle
      derives values deterministically from the trace index);
    * ``on_result(index, pe, op, area, address, result)`` observes every
      access result, ``result`` being the ``(cycles, flags, value)``
      tuple — the seam the word-granularity reference model checks
      read values through.
    """
    access = system.access
    pe_col, op_col, area_col, addr_col, flags_col = buffer.columns()
    index = -1
    for index, (pe, op, area, addr, flags) in enumerate(
        zip(pe_col, op_col, area_col, addr_col, flags_col)
    ):
        value = values(index) if values is not None else 0
        result = access(pe, op, area, addr, value, flags)
        if result[0] == BLOCKED:
            raise ReplayBlockedError(index, pe, op, area, addr)
        if on_result is not None:
            on_result(index, pe, op, area, addr, result)
        if check_invariants_every and (index + 1) % check_invariants_every == 0:
            system.check_invariants()
    if check_invariants_every and index >= 0:
        system.check_invariants()
    return system.stats


def _replay_checked(
    system: PIMCacheSystem,
    buffer: TraceBuffer,
    check_every: Optional[int] = None,
) -> SystemStats:
    return replay_access_driven(
        buffer, system, check_invariants_every=check_every
    )


def _blocked_error(
    buffer: TraceBuffer,
    config: SimulationConfig,
    n_pes: int,
    pe: int,
    op: int,
    area: int,
    addr: int,
) -> ReplayBlockedError:
    """Locate the trace index of a BLOCKED reference.

    The fast kernel tracks no index (an extra counter would tax every
    reference of every healthy replay for the benefit of an
    impossible-by-construction error path).  Replay is deterministic,
    so a second pass over a fresh system with the indexed loop blocks
    at the same reference and yields the exact position.
    """
    try:
        _replay_checked(PIMCacheSystem(config, n_pes), buffer)
    except ReplayBlockedError as error:
        return error
    return ReplayBlockedError(-1, pe, op, area, addr)  # pragma: no cover


def replay(
    buffer: TraceBuffer,
    config: Optional[SimulationConfig] = None,
    n_pes: Optional[int] = None,
    check_invariants_every: Optional[int] = None,
    system: Optional[PIMCacheSystem] = None,
    kernel: Optional[str] = None,
    mode: Optional[str] = None,
    batch_refs: Optional[int] = None,
    signature_bits: Optional[int] = None,
) -> SystemStats:
    """Replay *buffer* against a fresh cache system and return its stats.

    ``check_invariants_every`` (or the ``REPRO_CHECK_INVARIANTS``
    environment toggle — see :func:`invariant_check_interval`) switches
    to the checked per-access loop and validates the coherence
    invariants every N references.

    *mode* selects the coherence execution mode: ``"pessimistic"``
    (default) is the paper's per-access protocol below;
    ``"lazypim"`` delegates to
    :func:`repro.core.speculative.replay_speculative` — speculative
    batches of *batch_refs* references with *signature_bits*-wide
    conflict signatures, settled in bulk or rolled back.  The
    interconnect backends and the invariant toggle behave identically
    in either mode; speculative batches always run the interpreted loop,
    so under ``"lazypim"`` *kernel* only reaches ``batch_refs <= 1``.

    *kernel* picks the replay loop (``REPRO_REPLAY_KERNEL`` is the
    environment-level equivalent; the explicit argument wins):

    * ``"auto"`` (default) — the protocol's generated kernel
      (:mod:`repro.core.protocol.codegen`) when it can run, else the
      interpreted dispatch-table loop below;
    * ``"generated"`` — as auto, but raises if numpy is missing
      instead of silently interpreting (a kernel can still decline a
      trace outside its envelope — huge addresses, >255 PEs, data
      tracking — and fall back);
    * ``"interpreted"`` — always the dispatch-table loop; this is the
      differential oracle's reference path.

    The checked per-access loop ignores *kernel*: invariant checking
    needs per-reference control.

    *system* replays into a caller-built system instead of a fresh
    ``PIMCacheSystem(config, n_pes)`` — the hook the clustered fast
    path uses to run per-cluster shards through this same inlined
    kernel (a :class:`~repro.cluster.system.ClusterCacheSystem` keeps
    its network-charging handler wrappers; both fast kernels only
    bypass them for bus-free cache hits, which never cross the
    network).  A provided system overrides *config*/*n_pes*; blocked
    references then raise without the trace-index second pass (the
    caller owns system construction, so the diagnostic replay cannot
    be rebuilt here).
    """
    if mode is not None and mode not in ("pessimistic", "lazypim"):
        raise ValueError(
            f"unknown replay mode {mode!r}; choose from "
            "('pessimistic', 'lazypim')"
        )
    if mode == "lazypim":
        from repro.core.speculative import (
            DEFAULT_BATCH_REFS,
            DEFAULT_SIGNATURE_BITS,
            replay_speculative,
        )

        return replay_speculative(
            buffer,
            config=config,
            n_pes=n_pes,
            check_invariants_every=check_invariants_every,
            system=system,
            kernel=kernel,
            batch_refs=(
                batch_refs if batch_refs is not None else DEFAULT_BATCH_REFS
            ),
            signature_bits=(
                signature_bits if signature_bits is not None
                else DEFAULT_SIGNATURE_BITS
            ),
        )
    caller_system = system
    if caller_system is not None:
        config = caller_system.config
        pes = caller_system.n_pes
    else:
        if config is None:
            config = SimulationConfig()
        pes = n_pes if n_pes is not None else buffer.n_pes
    if check_invariants_every is None:
        check_invariants_every = invariant_check_interval()
    if check_invariants_every:
        _validate_codes(buffer)
        return _replay_checked(
            caller_system if caller_system is not None
            else PIMCacheSystem(config, pes),
            buffer,
            check_invariants_every,
        )
    if kernel is None:
        kernel = os.environ.get("REPRO_REPLAY_KERNEL") or "auto"
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown replay kernel {kernel!r}; choose from {KERNELS}"
        )
    system = (
        caller_system if caller_system is not None
        else PIMCacheSystem(config, pes)
    )
    if kernel != "interpreted":
        if _np is not None:
            # The generated kernel validates op/area codes during its
            # (cached) numpy preprocessing, raising the same ValueError
            # as _validate_codes; no separate Python scan needed.
            generated = codegen.get_kernel(system.protocol_spec)
            stats = generated(system, buffer, _np)
            if stats is not None:
                return stats
        elif kernel == "generated":
            raise RuntimeError(
                "kernel='generated' requires numpy, which is not installed"
            )
    _validate_codes(buffer)
    blocked = _interpret(system, buffer)
    if blocked is not None:
        if caller_system is not None:
            raise ReplayBlockedError(-1, *blocked)
        raise _blocked_error(buffer, config, pes, *blocked)
    return system.stats


def _hit_handles(system: PIMCacheSystem) -> tuple:
    """``(table, probes, read_h, er_h, write_h, dw_h)``: what
    :func:`_interpret` inlines the bus-free hit paths with.

    Valid while ``system._op_table`` is the ``table`` it was taken from
    (attaching or detaching a probe swaps the table); a caller that
    drives many short segments binds it once and checks that identity.
    Per-PE probe methods are bound once (the ``_lines`` dicts are never
    rebound, only mutated in place).
    """
    table = system._op_table
    # Handler handles must come from the table: ``system._read`` would
    # create a fresh bound-method object that is equal to but not
    # identical with the table cells.  A ``None`` handle simply never
    # matches (``handler is None`` cannot fire).
    read_h = table[Op.R][0]
    er_h = next((h for h in table[Op.ER] if h is not read_h), None)
    # The spec's silent-store table drives the inlined write hits: a
    # state whose entry is non-None absorbs the store with zero bus
    # cycles.  A protocol with no silent states (the write-through
    # family) disables the write fast path outright so writes skip the
    # extra cache probe.
    if not any(state is not None for state in system._store_silent_next):
        write_h = dw_h = None
    else:
        write_h = table[Op.W][0]
        dw_h = next((h for h in table[Op.DW] if h is not write_h), None)
    probes = [cache._lines.get for cache in system.caches]
    return table, probes, read_h, er_h, write_h, dw_h


def _interpret(system: PIMCacheSystem, buffer: TraceBuffer, handles=None):
    """The interpreted replay loop: run *buffer* through *system*'s
    dispatch table.  Op and area codes are the caller's to validate.

    Returns ``None``, or the ``(pe, op, area, address)`` of a reference
    that came back ``BLOCKED`` (the loop stops there).  *handles* is a
    :func:`_hit_handles` tuple bound by the caller, else bound here.
    """
    # Hot loop: dispatch straight off the system's handler table instead
    # of going through :meth:`PIMCacheSystem.access`, folding the
    # per-reference bookkeeping into the loop.  Two access() duties are
    # restructured wholesale rather than mirrored per reference:
    #
    # * ``stats.refs[area][op]`` is a pure histogram of the trace (a
    #   blocked reference stops the loop instead of retrying), so it is
    #   tallied once after the loop via ``Counter`` at C speed;
    # * ``_waiting`` can only gain entries when a handler reports
    #   BLOCKED, which stops the loop, so the busy-wait clearing in
    #   ``access`` has nothing to clear and is dropped.
    #
    # Any other change to ``access`` needs a matching change here.
    table = system._op_table
    waiting = system._waiting
    shift = system._block_shift
    pe_col, op_col, area_col, addr_col, flags_col = buffer.columns()
    caches = system.caches
    if caches and not system.track_data:
        # The bus-free hit paths carry the bulk of every workload, so
        # they are inlined here — probe + LRU touch + counters, exactly
        # as in the corresponding handlers — to skip the handler call:
        #
        # * ``_read`` hits (and any op the dispatch table demoted to R),
        # * ``_exclusive_read`` hits on a non-last word,
        # * ``_write``/``_direct_write`` hits on an EM/EC block (the
        #   demoted-DW counter included), copyback protocols only.
        #
        # Everything else — all misses, shared-state writes, the
        # read-then-purge of an ER on a block's last word, write-through
        # stores — falls through to the dispatch table.
        if handles is None or handles[0] is not table:
            handles = _hit_handles(system)
        _, probes, read_h, er_h, write_h, dw_h = handles
        # LRU stamps come from one shared local counter instead of the
        # per-cache ``_tick``s: replacement only compares stamps within
        # a single cache, and a counter that is strictly increasing
        # across *all* touch events preserves every within-cache touch
        # order, so victim selection is unchanged.  The counter is
        # synced into ``cache._tick`` before each handler call (the
        # handler stamps through lookup()/insert() on the requesting
        # PE's cache only) and read back after, keeping it above every
        # stamp already issued.
        gtick = max([cache._tick for cache in caches])
        # Plain-R hits are tallied into a flat local list (one subscript
        # instead of two) and folded into the hit matrix after the loop —
        # a histogram, so addition commutes.  PE cycles must NOT be
        # deferred the same way: ``_bus`` starts every bus transaction at
        # ``max(pe_clock + 1, bus_free_at)``, so a hit cycle missing from
        # the live clock would shift subsequent miss timing.
        r_hits = [0] * N_AREAS
        # Non-R inlined hits (ER non-last-word, silent W/DW) also cost
        # exactly one bus-free cycle each; counted flat and folded into
        # ``hit_service_cycles`` with the plain-R total after the loop.
        other_hits = 0
        hits = system._hits
        pe_cycles = system._pe_cycles
        block_mask = system._block_mask
        stats = system.stats
        silent_next = system._store_silent_next
        for pe, op, area, addr, flags in zip(
            pe_col, op_col, area_col, addr_col, flags_col
        ):
            block = addr >> shift
            # ``op == 0`` (plain R, every table cell is ``read_h``)
            # short-cuts both the double table subscript and the handler
            # identity test for the most common op.
            if op == 0:
                line = probes[pe](block)
                if line is not None:
                    gtick += 1
                    line.lru = gtick
                    r_hits[area] += 1
                    pe_cycles[pe] += 1
                    continue
                handler = read_h
            else:
                handler = table[op][area]
                if handler is read_h or (
                    handler is er_h and (addr & block_mask) != block_mask
                ):
                    line = probes[pe](block)
                    if line is not None:
                        gtick += 1
                        line.lru = gtick
                        hits[area][op] += 1
                        pe_cycles[pe] += 1
                        other_hits += 1
                        continue
                elif handler is dw_h or handler is write_h:
                    line = probes[pe](block)
                    if line is not None:
                        next_state = silent_next[line.state]
                        if next_state is not None:
                            if handler is dw_h:
                                stats.dw_demotions += 1
                            gtick += 1
                            line.lru = gtick
                            line.state = next_state
                            hits[area][op] += 1
                            pe_cycles[pe] += 1
                            other_hits += 1
                            continue
            cache = caches[pe]
            cache._tick = gtick
            result = handler(pe, op, area, addr, block, 0, flags)
            gtick = cache._tick
            if result[0] == BLOCKED:
                return pe, op, area, addr
            if waiting:  # pragma: no cover - see note above
                waiting.pop(pe, None)
        for cache in caches:
            cache._tick = gtick
        for area, count in enumerate(r_hits):
            hits[area][0] += count
        stats.hit_service_cycles += sum(r_hits) + other_hits
    else:
        for pe, op, area, addr, flags in zip(
            pe_col, op_col, area_col, addr_col, flags_col
        ):
            result = table[op][area](pe, op, area, addr, addr >> shift, 0, flags)
            if result[0] == BLOCKED:
                return pe, op, area, addr
            if waiting:  # pragma: no cover - see note above
                waiting.pop(pe, None)
    # Histogram keyed by ``area * N_OPS + op``: int keys count faster
    # than (area, op) tuples (~40% on a whole trace, ~20% on a 43-ref
    # speculative batch).
    refs = system.stats.refs
    for key, count in Counter(
        map(add, map(mul, area_col, repeat(N_OPS)), op_col)
    ).items():
        refs[key // N_OPS][key % N_OPS] += count
    return None


def replay_many(
    buffer: TraceBuffer, configs: Iterable[SimulationConfig]
) -> "list[SystemStats]":
    """Replay the same trace against several configurations."""
    return [replay(buffer, config) for config in configs]
