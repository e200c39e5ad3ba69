"""The benchmark's three workloads: inputs, set-up, timed body, identities.

Each workload is an object with

* ``warm_traces``: Tick traces it needs from the warm trace cache
  (made once per seed by :func:`make_warm_inputs`, outside any timing);
* ``setup()``: the input load that ``setup_s`` times (repeatable);
* ``make_reference()``: untimed work the correctness gate needs, done
  once after set-up and before the timed iterations;
* ``before_iteration()`` / ``after_iteration()``: untimed per-iteration
  housekeeping around the body;
* ``body(tracer)``: the timed work, returning one :class:`Operation` per
  emulation, replay or streamed job;
* ``identities(ops)``: the seed-independent correctness identities
  beyond the per-operation cycle-ledger check (see :mod:`gate`).

Every call into the program goes through a module attribute looked up
at call time (``_replay.replay``, ``_runner.Workloads``, ...), so the
traced run can wrap those attributes without the body knowing.
"""

from __future__ import annotations

import importlib
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import repro.analysis.runner as _runner
import repro.serve.checkpoint as _checkpoint
import repro.serve.jobs as _jobs
import repro.serve.stream as _stream
import repro.trace.io as _trace_io
from repro.core.config import OptimizationConfig, SimulationConfig

# ``repro.core`` re-exports the function ``replay`` under the submodule's
# name, so ``import repro.core.replay as _replay`` would bind the function.
_replay = importlib.import_module("repro.core.replay")

#: The paper's benchmarks at the scale ``repro tables`` uses.
SCALE = "small"
N_PES = 8

#: ``paper_cold`` leaves puzzle out: its execution-driven emulation
#: alone takes longer than the other three together.
COLD_TRACES = ("tri", "semi", "pascal")
WARM_TRACES = ("tri", "semi", "puzzle", "pascal")

#: The ``sweep_warm`` configurations.  The two bus points differ in miss
#: mix; the directory point uses the interconnect layer differently.
#: ``opts_none`` equals ``unoptimized_config()``, the Table 2/4 replay
#: of ``paper_cold``, so both workloads share its recorded counters.
SWEEP_CONFIGS = {
    "opts_all": SimulationConfig(),
    "opts_none": SimulationConfig(opts=OptimizationConfig.none()),
    "directory": SimulationConfig(interconnect="directory"),
}

#: ``serve_stream`` job 1: a Tick trace streamed from a chunked
#: container, checkpointed as the job service does.
STREAM_TRACE = "pascal"
#: ``serve_stream`` job 2: a speculative (LazyPIM) stream over a trace
#: prefix long enough to roll back organically.
LAZYPIM_TRACE = "tri"
LAZYPIM_REFS = 150_000
#: Both jobs use the job service's own defaults, as ``repro serve
#: submit`` does without ``--chunk``.
JOB_CHUNK_REFS = _jobs.DEFAULT_CHUNK_REFS
JOB_CHECKPOINT_EVERY = _jobs.DEFAULT_CHECKPOINT_EVERY


@dataclass
class Operation:
    """One emulation, replay or streamed job of a timed body."""

    id: str
    kind: str  # "emulate" | "replay" | "stream" | "lazypim"
    trace: str
    config: str
    stats: object = None
    error: Optional[str] = None

    @property
    def refs(self) -> int:
        """Simulated memory references the operation processed."""
        return self.stats.total_refs if self.stats is not None else 0


def warm_cache_dir(workdir: Path) -> Path:
    return workdir / "warm"


def warm_trace_path(workdir: Path, seed: int, name: str) -> Path:
    """Where the warm trace cache holds *name* for *seed* (the cache's
    own key, so a ``TRACE_CACHE_VERSION`` bump makes it regenerate)."""
    key = _runner.Workloads(scale=SCALE, seed=seed).cache_key(name, N_PES)
    return warm_cache_dir(workdir) / (key + ".trace")


def make_warm_inputs(workdir: Path, seed: int, names) -> None:
    """Emulate each missing trace of *names* into the warm cache."""
    os.environ["REPRO_TRACE_CACHE"] = str(warm_cache_dir(workdir))
    workloads = _runner.Workloads(scale=SCALE, seed=seed)
    for name in names:
        if not warm_trace_path(workdir, seed, name).exists():
            workloads.trace(name, N_PES)


def _warm_workloads(workdir: Path, seed: int, names):
    missing = [n for n in names if not warm_trace_path(workdir, seed, n).exists()]
    if missing:
        raise RuntimeError(f"warm inputs missing for seed {seed}: {missing}")
    os.environ["REPRO_TRACE_CACHE"] = str(warm_cache_dir(workdir))
    return _runner.Workloads(scale=SCALE, seed=seed)


def _run_op(op: Operation, call) -> Operation:
    """Run *call* for *op*; an exception marks the operation failed
    instead of aborting the run."""
    try:
        op.stats = call()
    except Exception as exc:  # noqa: BLE001 - counted, reported by the gate
        op.error = f"{type(exc).__name__}: {exc}"
    return op


def _timed_op(tracer, op: Operation, call) -> Operation:
    """Run *op* in an ``op`` span, after the tracer's between-operations
    hook (the timed run's host-speed burst)."""
    tracer.between_ops()
    with tracer.span("op", id=op.id):
        return _run_op(op, call)


class Workload:
    """Defaults: no per-iteration housekeeping, no extra identities."""

    name = ""
    warm_traces: tuple = ()

    def before_iteration(self) -> None:
        pass

    def after_iteration(self) -> None:
        pass

    def make_reference(self) -> None:
        pass

    def identities(self, ops: List[Operation]) -> Dict[str, str]:
        return {}


class PaperCold(Workload):
    """Emulate tri, semi and pascal into an empty, run-private trace
    cache, then replay each under the unoptimized config: the cold path
    of ``repro tables``."""

    name = "paper_cold"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.root = workdir / "cold"
        self._dir: Optional[str] = None

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)

    def before_iteration(self) -> None:
        self._dir = tempfile.mkdtemp(dir=self.root)
        os.environ["REPRO_TRACE_CACHE"] = self._dir

    def after_iteration(self) -> None:
        shutil.rmtree(self._dir, ignore_errors=True)
        self._dir = None

    def body(self, tracer) -> List[Operation]:
        workloads = _runner.Workloads(scale=SCALE, seed=self.seed)
        ops = []
        for name in COLD_TRACES:
            op = Operation(f"emulate/{name}", "emulate", name, "opts_all")
            ops.append(_timed_op(
                tracer, op, lambda: workloads.result(name, N_PES).stats))
        config = _runner.unoptimized_config()
        for name in COLD_TRACES:
            op = Operation(f"replay/{name}/opts_none", "replay", name,
                           "opts_none")
            ops.append(_timed_op(
                tracer, op, lambda: workloads.replay(name, config, N_PES)))
        return ops


class SweepWarm(Workload):
    """Replay the four Tick traces, loaded from the warm trace cache,
    whole under three configurations: the replay hit loop and miss
    handlers, one kernel entry per trace and config."""

    name = "sweep_warm"
    warm_traces = WARM_TRACES

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.traces: Dict[str, object] = {}

    def setup(self) -> None:
        self.traces = {}
        workloads = _warm_workloads(self.workdir, self.seed, WARM_TRACES)
        self.traces = {n: workloads.trace(n, N_PES) for n in WARM_TRACES}

    def body(self, tracer) -> List[Operation]:
        ops = []
        for name, trace in self.traces.items():
            for label, config in SWEEP_CONFIGS.items():
                op = Operation(f"replay/{name}/{label}", "replay", name,
                               label)
                ops.append(_timed_op(
                    tracer, op, lambda: _replay.replay(trace, config)))
        return ops


class ServeStream(Workload):
    """Job-service-shaped traffic, the calls ``repro.serve``'s job
    worker makes: two jobs, each streamed from a chunked container
    through ``replay_stream`` with a checkpoint every few chunks.  The
    second runs speculatively (LazyPIM) and rolls back.  Per-call kernel
    set-up, settle/rollback and checkpoint I/O dominate; the whole-trace
    hit loop barely matters."""

    name = "serve_stream"
    warm_traces = (STREAM_TRACE, LAZYPIM_TRACE)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.dir = workdir / "serve"
        self._whole: Optional[dict] = None

    def _container(self, job: str) -> Path:
        return self.dir / f"{job}.tracec"

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        workloads = _warm_workloads(self.workdir, self.seed, self.warm_traces)
        _trace_io.write_trace_chunked(
            workloads.trace(STREAM_TRACE, N_PES), self._container("stream"),
            chunk_refs=JOB_CHUNK_REFS,
        )
        _trace_io.write_trace_chunked(
            workloads.trace(LAZYPIM_TRACE, N_PES).slice(0, LAZYPIM_REFS),
            self._container("lazypim"), chunk_refs=JOB_CHUNK_REFS,
        )

    def _job(self, tracer, op: Operation, mode: Optional[str]) -> Operation:
        checkpoint_path = self.dir / f"{op.kind}.ckpt"

        def on_chunk(index: int, _refs: int, system) -> None:
            if (index + 1) % JOB_CHECKPOINT_EVERY == 0:
                with tracer.span("job.checkpoint") as span:
                    _checkpoint.write_checkpoint(
                        _checkpoint.snapshot(system), checkpoint_path
                    )
                    if span is not None:
                        span.attrs["bytes"] = os.path.getsize(checkpoint_path)

        return _timed_op(tracer, op, lambda: _stream.replay_stream(
            self._container(op.kind), SimulationConfig(),
            on_chunk=on_chunk, mode=mode,
        ))

    def body(self, tracer) -> List[Operation]:
        job = Operation(f"stream/{STREAM_TRACE}/opts_all", "stream",
                        STREAM_TRACE, "opts_all")
        spec = Operation(f"lazypim/{LAZYPIM_TRACE}{LAZYPIM_REFS}/opts_all",
                         "lazypim", LAZYPIM_TRACE, "opts_all")
        return [self._job(tracer, job, None),
                self._job(tracer, spec, "lazypim")]

    def make_reference(self) -> None:
        """Replay the streamed job's trace whole, once, for the gate."""
        trace = _trace_io.read_trace(self._container("stream"))
        self._whole = _replay.replay(trace, SimulationConfig()).as_dict()

    def identities(self, ops: List[Operation]) -> Dict[str, str]:
        """The streamed job must equal a whole-trace replay of the same
        trace; the speculative job must have rolled back."""
        problems = {}
        for op in ops:
            if op.stats is None:
                continue
            if op.kind == "stream" and op.stats.as_dict() != self._whole:
                problems[op.id] = "streamed counters differ from whole-trace replay"
            elif op.kind == "lazypim" and op.stats.batch_rollbacks <= 0:
                problems[op.id] = "speculative job never rolled back"
        return problems


WORKLOADS = {w.name: w for w in (PaperCold, SweepWarm, ServeStream)}
