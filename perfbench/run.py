"""Benchmark driver: one workload, timed in one process with one thread.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_warm --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload's body repeatedly for ``--seconds`` and
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced iterations and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes: warm trace cache, cold caches, job files,
#: span traces.  Lives in the checkout, never in ``~/.cache``.
WORKDIR = ROOT / ".bench_build" / "perfbench"

sys.path[:0] = [str(SRC), str(HERE)]
try:
    import gate  # noqa: E402
    import hostspeed  # noqa: E402
    import tracing  # noqa: E402
    import workloads  # noqa: E402
except ModuleNotFoundError as exc:  # a directory without the program
    raise SystemExit(f"perfbench: cannot import the program from {SRC}: {exc}")

#: Set-ups per run, each a fresh interpreter; ``setup_s`` reports
#: their median.
SETUP_REPEATS = 9
#: A set-up child (interpreter start, imports, one input load) kills
#: itself after this long.
SETUP_TIMEOUT_S = 15
#: A child making warm inputs emulates at most four Tick traces.
WARM_INPUT_TIMEOUT_S = 150

END_TO_END = (
    ("norm_wall_s", "s"),
    ("norm_refs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        default="sweep_warm")
    parser.add_argument("--seed", type=int, default=1,
                        help="emulator machine seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure whole iterations for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing the per-layer metrics")
    parser.add_argument("--record-expected", action="store_true",
                        help="re-record expected_seed1.json from the current "
                             "program (only after a deliberate model change)")
    parser.add_argument("--make-warm-inputs", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_environment() -> None:
    """Pin the program's environment toggles to their defaults and keep
    every trace cache inside the benchmark's work directory."""
    for var in ("REPRO_REPLAY_KERNEL", "REPRO_CHECK_INVARIANTS",
                "REPRO_TRACE_CACHE_BYTES"):
        os.environ.pop(var, None)
    os.environ["REPRO_TRACE_CACHE"] = str(WORKDIR / "unused")


def ensure_warm_inputs(args, workload) -> None:
    """Emulate missing warm inputs in a child process, before anything
    is measured, so this process never holds the emulator's heap."""
    if any(not workloads.warm_trace_path(WORKDIR, args.seed, n).exists()
           for n in workload.warm_traces):
        _child(args, "--make-warm-inputs", WARM_INPUT_TIMEOUT_S)


def _child(args, flag: str, timeout: Optional[float]) -> None:
    """Run this script once more with *flag*, and wait for it."""
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed), flag],
        check=True, timeout=timeout,
    )


def measure_setups(args):
    """Seconds of each of ``SETUP_REPEATS`` set-ups, one after another.
    Each is a child interpreter that starts, imports the program and
    loads the workload's inputs, then exits; so every sample holds the
    whole set-up, not just the part that a warm interpreter repeats."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls for the child's exit in
        # sleeps of up to 50 ms, which would quantize every sample.  The
        # child bounds its own run time with an alarm instead.
        _child(args, "--setup-only", None)
        setups.append(time.perf_counter() - start)
    return setups


def reset_peak_rss() -> bool:
    """Reset the kernel's resident high-water mark of this process, so
    the peak read later belongs to what ran after the reset."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(reset: bool) -> float:
    """Resident high-water mark in MB: since :func:`reset_peak_rss` if
    it succeeded, else since process start."""
    if reset:
        try:
            with open("/proc/self/status") as fh:
                match = re.search(r"^VmHWM:\s+(\d+) kB", fh.read(), re.M)
            if match:
                return int(match.group(1)) / 1024
        except OSError:
            pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def iteration(workload, tracer):
    """One timed body: ``(operations, wall seconds)``."""
    workload.before_iteration()
    gc.collect()
    start = time.perf_counter()
    ops = workload.body(tracer)
    wall = time.perf_counter() - start
    workload.after_iteration()
    return ops, wall


class Tally:
    """Operations attempted and failed across a run's iterations."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = {}

    def add(self, ops) -> None:
        problems = gate.check(
            ops, self.workload.identities(ops), self.expected, self.first
        )
        self.attempted += len(ops)
        self.failed += len(problems)
        self.problems.update(problems)


def _time_left(start: float, seconds: float, last: float) -> bool:
    """Start another iteration only if it would end nearer to
    *seconds* than stopping now: the run measures whole iterations for
    as close to *seconds* as they allow."""
    return time.perf_counter() - start + last / 2 < seconds


def timed_run(workload, tally, seconds: float):
    """Timed iterations for about *seconds*, with a host-speed burst
    before every operation and after the last.  Returns each
    iteration's wall (bursts left out), that wall normalized by the
    iteration's bursts, its normalized rate, every burst, and the
    resident peak of the first iteration.  That peak is the first
    iteration's alone because the heap grows a little with each
    iteration, so a peak over all of them would depend on how many fit
    in *seconds*.  The probe's buffer is allocated before the peak is
    reset, so the peak includes it."""
    walls, norms, rates = [], [], []
    with closing(hostspeed.Probe()) as probe:
        gc.collect()
        reset = reset_peak_rss()
        peak = None
        start = time.perf_counter()
        while True:
            first = len(probe.samples)
            ops, wall = iteration(workload, probe)
            probe.between_ops()
            if peak is None:
                peak = peak_rss_mb(reset)
            bursts = probe.samples[first:]
            wall -= sum(bursts[:-1])
            walls.append(wall)
            norms.append(hostspeed.normalized(wall, bursts))
            rates.append(sum(op.refs for op in ops) / norms[-1])
            tally.add(ops)
            if not _time_left(start, seconds, wall + sum(bursts)):
                return walls, norms, rates, probe.samples, peak


def traced_run(workload, tally, seconds: float):
    """Untraced/traced iteration pairs.  The per-layer metrics, the
    self-time table and the written spans all come from the pair whose
    traced iteration has the median wall time."""
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("setup"):
        workload.setup()
    workload.make_reference()
    n_setup = len(tracer.spans)
    pairs = []
    start = time.perf_counter()
    while True:
        ops, untraced = iteration(workload, tracing.NullTracer())
        tally.add(ops)
        del tracer.spans[n_setup:]
        with tracer.installed():
            ops, traced = iteration(workload, tracer)
        tally.add(ops)
        pairs.append((traced, untraced, tracer.spans[n_setup:], ops))
        if not _time_left(start, seconds, untraced + traced):
            break
    pairs.sort(key=lambda pair: pair[0])
    traced, untraced, body, ops = pairs[(len(pairs) - 1) // 2]
    spans = tracer.spans[:n_setup] + body
    metrics = tracing.layer_metrics(spans, ops, traced, untraced)
    return metrics, spans, traced, untraced, len(pairs)


def _print_timed(workload, walls, norms, bursts, setups, metrics) -> None:
    print(f"{workload.name}: {len(walls)} iteration(s), wall s "
          + " ".join(f"{w:.3f}" for w in walls))
    print("  normalized s " + " ".join(f"{n:.3f}" for n in norms)
          + f" ({len(bursts)} bursts of {statistics.median(bursts):.4f} s "
          f"median, {hostspeed.REFERENCE_S} s by definition)")
    print(f"  set-up: median of {len(setups)} (interpreter start + imports "
          "+ input load) " + " ".join(f"{s:.3f}" for s in setups))
    for name, metric in metrics.items():
        print(f"  {name:<12} {metric['value']:>16.6g} {metric['unit']}")


def _print_traced(spans, metrics, traced, untraced, n_pairs) -> None:
    print(f"median traced iteration of {n_pairs}; layer self time, "
          "set-up excluded:")
    layers = tracing.layer_self_times(spans)
    for layer, (own, count) in sorted(layers.items(), key=lambda kv: -kv[1][0]):
        print(f"  {layer:<12} {own:9.4f} s  {count:7d} spans")
    accounted = sum(own for own, _ in layers.values())
    residual = traced - accounted
    print(f"  spans {accounted:.4f} s + residual {residual:.4f} s = traced "
          f"wall {traced:.4f} s; residual is {residual / untraced:.2%} of "
          f"the untraced wall {untraced:.4f} s")
    print("per-layer metrics (set-up spans included):")
    units = dict(tracing.PER_LAYER)
    for name, (value, base) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]:<6} {base}")


def record_expected() -> None:
    ops = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(gate.RECORDED_SEED, WORKDIR)
        workloads.make_warm_inputs(WORKDIR, gate.RECORDED_SEED, cls.warm_traces)
        workload.setup()
        workload.make_reference()
        ops[name], _ = iteration(workload, tracing.NullTracer())
        problems = workload.identities(ops[name])
        if problems:
            raise RuntimeError(f"{name}: {problems}")
    gate.record(ops)
    print(f"recorded {gate.EXPECTED_PATH}")


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_environment()
    if args.record_expected:
        record_expected()
        return 0
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.make_warm_inputs:
        workloads.make_warm_inputs(WORKDIR, args.seed, workload.warm_traces)
        return 0
    if args.setup_only:
        signal.alarm(SETUP_TIMEOUT_S)
        workload.setup()
        return 0
    ensure_warm_inputs(args, workload)
    tally = Tally(workload, gate.load_expected(args.seed))

    if args.trace:
        per_layer, spans, traced, untraced, n_pairs = traced_run(
            workload, tally, args.seconds
        )
        _print_traced(spans, per_layer, traced, untraced, n_pairs)
        metrics = {
            name: {"value": per_layer[name][0], "unit": unit}
            for name, unit in tracing.PER_LAYER
        }
        stem = WORKDIR / "spans" / f"{workload.name}-seed{args.seed}"
        path = tracing.write_chrome_trace(
            spans, workload.name, stem.with_suffix(".trace.json")
        )
        stem.with_suffix(".metrics.json").write_text(json.dumps(metrics) + "\n")
        print(f"spans: {path}")
    else:
        setups = measure_setups(args)
        workload.setup()
        workload.make_reference()
        walls, norms, rates, bursts, peak = timed_run(
            workload, tally, args.seconds
        )
        values = {
            "norm_wall_s": statistics.median(norms),
            "norm_refs_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        _print_timed(workload, walls, norms, bursts, setups, metrics)

    for op_id, problem in sorted(tally.problems.items()):
        print(f"FAILED {op_id}: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
