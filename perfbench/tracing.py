"""Host-time spans for the traced run, and the per-layer metrics.

Spans are recorded only by the benchmark's own code: :class:`Tracer`
wraps public module attributes at the program's layer boundaries
(:data:`BOUNDARIES`) for the duration of a traced set-up or body, and
restores them afterwards.  Every span keeps its name, start, end and
parent in memory; nothing is written until the run ends.  A layer's
self time is its spans' durations minus the part their child spans
cover.

Splitting preprocessing from the hit loop from the miss handlers inside
one kernel call needs spans inside the program; these boundary spans
see a kernel call as one span.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.obs.export import TRACE_SCHEMA

#: (module, attribute, span name).  The benchmark calls the program
#: through these attributes, and the program's own layers call each
#: other through the ones below the top line, so each wrapper sees one
#: layer crossing.
BOUNDARIES = (
    ("repro.analysis.runner", "run_benchmark", "machine.run_benchmark"),
    ("repro.analysis.runner", "read_trace", "trace.read_trace"),
    ("repro.analysis.runner", "write_trace", "trace.write_trace"),
    ("repro.trace.io", "write_trace_chunked", "trace.write_trace_chunked"),
    ("repro.analysis.runner", "replay", "replay.runner"),
    ("repro.core.replay", "replay", "replay.core"),
    ("repro.serve.stream", "replay", "replay.stream"),
    ("repro.core.speculative", "replay", "replay.speculative"),
    ("repro.core.speculative", "batch_signatures", "speculative.batch_signatures"),
    ("repro.core.speculative", "signatures_conflict",
     "speculative.signatures_conflict"),
    ("repro.serve.checkpoint", "snapshot", "checkpoint.snapshot"),
    ("repro.serve.checkpoint", "restore_into", "checkpoint.restore_into"),
    ("repro.serve.checkpoint", "write_checkpoint", "checkpoint.write_checkpoint"),
)
#: Generator boundary: each ``next()`` on the chunk reader is one span.
CHUNK_READER = ("repro.serve.stream", "iter_trace_chunks", "trace.chunk_read")

#: Every per-layer metric the traced run prints, with its unit.  A
#: metric of a layer that does no work in a workload reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("machine.emulate_s", "s"),
    ("machine.refs_per_s", "1/s"),
    ("trace.store_s", "s"),
    ("trace.load_s", "s"),
    ("trace.chunk_read_s", "s"),
    ("replay.calls", "count"),
    ("replay.self_s", "s"),
    ("replay.refs_per_call", "refs"),
    ("replay.refs_per_s.tri", "1/s"),
    ("replay.refs_per_s.semi", "1/s"),
    ("replay.refs_per_s.puzzle", "1/s"),
    ("replay.refs_per_s.pascal", "1/s"),
    ("replay.ns_per_ref.opts_all", "ns"),
    ("replay.ns_per_ref.opts_none", "ns"),
    ("interconnect.directory_over_bus", "ratio"),
    ("stream.chunks", "count"),
    ("stream.chunk_ms.p50", "ms"),
    ("stream.chunk_ms.p90", "ms"),
    ("speculative.commits", "count"),
    ("speculative.rollbacks", "count"),
    ("speculative.commit_ratio", "ratio"),
    ("speculative.signature_s", "s"),
    ("speculative.driver_s", "s"),
    ("checkpoint.snapshot_s.rollback", "s"),
    ("checkpoint.snapshot_s.job", "s"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.bytes.rollback", "bytes"),
    ("checkpoint.bytes.job", "bytes"),
    ("trace_run.residual_s", "s"),
    ("trace_run.overhead_s", "s"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int, attrs: dict):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """The untraced run's tracer: spans cost one ``nullcontext``."""

    def span(self, name: str, **attrs):
        return nullcontext()

    def between_ops(self) -> None:
        """Called before every operation of a body; see ``hostspeed``."""


class Tracer(NullTracer):
    """Records nested spans; :meth:`installed` wraps the boundaries."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, perf_counter(), parent, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def _parent_name(self) -> Optional[str]:
        return self.spans[self._stack[-1]].name if self._stack else None

    def _wrap(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = {}
            if args and hasattr(args[0], "columns"):  # a TraceBuffer
                attrs["refs"] = len(args[0])
            if kwargs.get("mode"):
                attrs["mode"] = kwargs["mode"]
            job = tracer._parent_name() == "job.checkpoint"
            with tracer.span(name, **attrs):
                result = original(*args, **kwargs)
            if name == "checkpoint.snapshot" and not job:
                # A rollback snapshot stays in memory; its size is what
                # writing it would cost.  Measured in a span of its own
                # so no layer's self time includes it.
                with tracer.span("tracer.measure"):
                    tracer.spans[-1].attrs["bytes"] = len(
                        json.dumps(result, sort_keys=True)
                    )
            return result

        return traced

    def _wrap_reader(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            chunks = original(*args, **kwargs)
            while True:
                with tracer.span(name):
                    chunk = next(chunks, None)
                if chunk is None:
                    return
                yield chunk

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary attribute for the duration of the block."""
        boundaries = BOUNDARIES + (CHUNK_READER,)
        # Import every module before wrapping any attribute: a module
        # first imported mid-loop would bind an already wrapped function
        # under its own name and keep it after the restore.
        modules = [importlib.import_module(m) for m, _, _ in boundaries]
        saved = []
        try:
            for module, (_, attr, name) in zip(modules, boundaries):
                original = getattr(module, attr)
                wrap = self._wrap_reader if attr == CHUNK_READER[1] else self._wrap
                saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


# -- analysis --------------------------------------------------------------


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


#: Span-name prefixes that are program layers; every other span (``op``,
#: ``job.checkpoint``) is glue the benchmark opens itself.
LAYERS = ("machine", "trace", "replay", "speculative", "checkpoint", "tracer")


def _root(spans: List[Span], span: Span) -> Span:
    while span.parent >= 0:
        span = spans[span.parent]
    return span


def layer_self_times(spans: List[Span]) -> Dict[str, Tuple[float, int]]:
    """(self seconds, span count) per layer over the timed body: spans
    under the top-level ``setup`` span are left out."""
    out: Dict[str, Tuple[float, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        if _root(spans, span).name == "setup":
            continue
        layer = span.name.split(".", 1)[0]
        if layer not in LAYERS:
            layer = "benchmark"
        elif span.attrs.get("mode") == "lazypim":
            # A lazypim chunk call's own time is the speculative driver:
            # batch planning, settle and lock singletons.
            layer = "speculative"
        total, count = out.get(layer, (0.0, 0))
        out[layer] = (total + own, count + 1)
    return out


def _ancestor(spans: List[Span], index: int, name: str) -> Optional[Span]:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return spans[parent]
        parent = spans[parent].parent
    return None


def layer_metrics(
    spans: List[Span],
    ops,
    traced_wall: float,
    untraced_wall: float,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced iteration (its set-up spans
    included), each as ``(value, base)`` where *base* names what a
    ratio or rate was computed from."""
    op_by_id = {op.id: op for op in ops}
    metrics: Dict[str, Tuple[float, str]] = {}

    def total(*names: str) -> float:
        return sum(s.duration for s in spans if s.name in names)

    replay_idx = [i for i, s in enumerate(spans) if s.name.startswith("replay.")]
    has_replay_child = {spans[i].parent for i in replay_idx}
    leaves = [i for i in replay_idx if i not in has_replay_child]
    own = self_times(spans)

    # machine
    emulate_s = total("machine.run_benchmark")
    emulated = sum(op.refs for op in ops if op.kind == "emulate")
    metrics["machine.emulate_s"] = (emulate_s, "run_benchmark spans")
    metrics["machine.refs_per_s"] = (
        emulated / emulate_s if emulate_s else 0.0,
        f"{emulated} emulated refs / {emulate_s:.3f} s",
    )
    # trace
    metrics["trace.store_s"] = (
        total("trace.write_trace", "trace.write_trace_chunked"),
        "write_trace + write_trace_chunked spans",
    )
    metrics["trace.load_s"] = (total("trace.read_trace"), "read_trace spans")
    metrics["trace.chunk_read_s"] = (
        total("trace.chunk_read"), "iter_trace_chunks next() spans"
    )
    # replay: a leaf is a kernel entry (a replay span holding no other)
    leaf_refs = sum(spans[i].attrs.get("refs", 0) for i in leaves)
    metrics["replay.calls"] = (len(leaves), "kernel entries")
    metrics["replay.self_s"] = (
        sum(own[i] for i in leaves), "self time of kernel-entry spans"
    )
    metrics["replay.refs_per_call"] = (
        leaf_refs / len(leaves) if leaves else 0.0,
        f"{leaf_refs} refs / {len(leaves)} entries",
    )
    whole: Dict[Tuple[str, str], List[float]] = {}
    for i in leaves:
        op_span = _ancestor(spans, i, "op")
        op = op_by_id.get(op_span.attrs["id"]) if op_span else None
        if op is not None and op.kind == "replay":
            entry = whole.setdefault((op.trace, op.config), [0, 0.0])
            entry[0] += spans[i].attrs.get("refs", 0)
            entry[1] += spans[i].duration

    def rate(keys) -> Tuple[int, float]:
        refs = sum(whole[k][0] for k in keys)
        secs = sum(whole[k][1] for k in keys)
        return refs, secs

    for trace in ("tri", "semi", "puzzle", "pascal"):
        refs, secs = rate([k for k in whole if k[0] == trace])
        metrics[f"replay.refs_per_s.{trace}"] = (
            refs / secs if secs else 0.0,
            f"{refs} refs / {secs:.3f} s, whole-trace replays",
        )
    for config in ("opts_all", "opts_none"):
        refs, secs = rate([k for k in whole if k[1] == config])
        metrics[f"replay.ns_per_ref.{config}"] = (
            secs * 1e9 / refs if refs else 0.0,
            f"{secs:.3f} s / {refs} refs",
        )
    # interconnect: directory against bus on the same traces and opts
    paired = [t for (t, c) in whole if c == "directory" and (t, "opts_all") in whole]
    _, dir_s = rate([(t, "directory") for t in paired])
    _, bus_s = rate([(t, "opts_all") for t in paired])
    metrics["interconnect.directory_over_bus"] = (
        dir_s / bus_s if bus_s else 0.0,
        f"directory {dir_s:.3f} s / bus {bus_s:.3f} s over {len(paired)} traces",
    )
    # stream: one replay.stream span per chunk of the pessimistic job;
    # a lazypim chunk's time is the speculative driver's (below)
    chunk_ms = sorted(s.duration * 1e3 for s in spans
                      if s.name == "replay.stream"
                      and s.attrs.get("mode") != "lazypim")
    base = f"{len(chunk_ms)} pessimistic chunks"
    metrics["stream.chunks"] = (len(chunk_ms), base)
    metrics["stream.chunk_ms.p50"] = (
        statistics.median(chunk_ms) if chunk_ms else 0.0, f"median of {base}"
    )
    metrics["stream.chunk_ms.p90"] = (
        statistics.quantiles(chunk_ms, n=10)[8] if len(chunk_ms) > 1 else 0.0,
        f"p90 of {base}",
    )
    # speculative: simulated counts come from the counters, not spans
    commits = sum(op.stats.batch_commits for op in ops if op.stats is not None)
    rollbacks = sum(op.stats.batch_rollbacks for op in ops if op.stats is not None)
    metrics["speculative.commits"] = (commits, "batch_commits")
    metrics["speculative.rollbacks"] = (rollbacks, "batch_rollbacks")
    metrics["speculative.commit_ratio"] = (
        commits / (commits + rollbacks) if commits + rollbacks else 0.0,
        f"{commits} commits / {commits + rollbacks} batch attempts",
    )
    metrics["speculative.signature_s"] = (
        total("speculative.batch_signatures", "speculative.signatures_conflict"),
        "batch_signatures + signatures_conflict spans",
    )
    metrics["speculative.driver_s"] = (
        sum(own[i] for i in replay_idx
            if i in has_replay_child and spans[i].attrs.get("mode") == "lazypim"),
        "self time of lazypim replay spans: planning, settle, lock singletons",
    )
    # checkpoint: job checkpoints and rollback snapshots counted apart
    snaps = [s for s in spans if s.name == "checkpoint.snapshot"]
    job_snap = [s for s in snaps if spans[s.parent].name == "job.checkpoint"]
    rb_snap = [s for s in snaps if spans[s.parent].name != "job.checkpoint"]
    measures = [s for s in spans if s.name == "tracer.measure"]
    metrics["checkpoint.snapshot_s.rollback"] = (
        sum(s.duration for s in rb_snap), f"{len(rb_snap)} rollback snapshots"
    )
    metrics["checkpoint.snapshot_s.job"] = (
        sum(s.duration for s in job_snap), f"{len(job_snap)} job snapshots"
    )
    metrics["checkpoint.restore_s"] = (
        total("checkpoint.restore_into"), "restore_into spans"
    )
    metrics["checkpoint.write_s"] = (
        total("checkpoint.write_checkpoint"), "write_checkpoint spans"
    )
    metrics["checkpoint.bytes.rollback"] = (
        sum(s.attrs.get("bytes", 0) for s in measures),
        f"JSON size of {len(measures)} rollback snapshots",
    )
    job_ckpts = [s for s in spans if s.name == "job.checkpoint"]
    metrics["checkpoint.bytes.job"] = (
        sum(s.attrs.get("bytes", 0) for s in job_ckpts),
        f"{len(job_ckpts)} checkpoint files written",
    )
    # run
    top = sum(s.duration for s in spans if s.parent < 0 and s.name != "setup")
    metrics["trace_run.residual_s"] = (
        traced_wall - top, f"traced body {traced_wall:.3f} s - top-level spans"
    )
    metrics["trace_run.overhead_s"] = (
        traced_wall - untraced_wall,
        f"traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s",
    )
    return metrics


def chrome_trace(spans: List[Span], label: str) -> dict:
    """Spans as Chrome trace events: one host-time process that opens in
    Perfetto beside the simulated lanes ``repro profile`` writes."""
    pid = 10  # repro.obs.export uses pids 0-3 for simulated time
    t0 = min((s.start for s in spans), default=0.0)
    events = [
        {"ph": "M", "pid": pid, "name": "process_name",
         "args": {"name": f"host time: {label}"}},
    ]
    for s in spans:
        events.append({
            "ph": "X", "pid": pid, "tid": 1, "name": s.name,
            "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
            "args": dict(s.attrs),
        })
    return {"traceEvents": events, "otherData": {"schema": TRACE_SCHEMA}}


def write_chrome_trace(spans: List[Span], label: str, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, label)) + "\n")
    return path
