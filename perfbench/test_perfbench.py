"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import hostspeed  # noqa: E402
from repro.obs.schema import validate_chrome_trace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A work directory holding the seed-1 tri warm input."""
    path = tmp_path_factory.mktemp("work")
    workloads.make_warm_inputs(path, 1, ["tri"])
    return path


def test_input_generator_is_deterministic_per_seed(workdir, tmp_path):
    workloads.make_warm_inputs(tmp_path, 1, ["tri"])
    workloads.make_warm_inputs(tmp_path, 2, ["tri"])
    first = workloads.warm_trace_path(workdir, 1, "tri").read_bytes()
    again = workloads.warm_trace_path(tmp_path, 1, "tri").read_bytes()
    other = workloads.warm_trace_path(tmp_path, 2, "tri").read_bytes()
    assert first == again
    assert first != other


def test_every_metric_is_named_and_has_a_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    assert declared["end_to_end"] == list(run.END_TO_END)
    assert declared["per_layer"] == list(tracing.PER_LAYER)
    for name, unit in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert unit, name
    # The traced run computes exactly the declared per-layer metrics,
    # even for a workload whose layers did no work.
    assert set(tracing.layer_metrics([], [], 1.0, 1.0)) == {
        name for name, _ in tracing.PER_LAYER
    }


def test_host_speed_probe_runs_between_operations_only():
    probe = hostspeed.Probe()
    ops = []
    for i in range(3):
        ops.append(workloads._timed_op(
            probe, workloads.Operation(f"op/{i}", "replay", "x", "y"),
            lambda: None))
    assert len(probe.samples) == len(ops)
    assert hostspeed.reference_work(probe.buffer) == hostspeed.CHECKSUM
    # a body measured while every burst took the reference time is
    # unchanged; one measured at half the reference speed is halved
    ref = hostspeed.REFERENCE_S
    assert hostspeed.normalized(3.0, [ref] * 4) == pytest.approx(3.0)
    assert hostspeed.normalized(3.0, [2 * ref] * 4) == pytest.approx(1.5)
    probe.close()


def _tri_replay(workdir) -> workloads.Operation:
    trace = workloads._warm_workloads(workdir, 1, ["tri"]).trace("tri")
    op = workloads.Operation("replay/tri/opts_all", "replay", "tri", "opts_all")
    return workloads._run_op(
        op, lambda: workloads._replay.replay(
            trace, workloads.SWEEP_CONFIGS["opts_all"])
    )


def test_corrupted_recorded_counter_is_a_failed_operation(workdir, tmp_path):
    op = _tri_replay(workdir)
    expected = gate.load_expected(gate.RECORDED_SEED)
    assert gate.check([op], {}, expected, {}) == {}

    record = json.loads(gate.EXPECTED_PATH.read_text())
    record["ops"][op.id]["bus_cycles_total"] += 1
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(record))
    tally = run.Tally(workloads.SweepWarm(1, workdir),
                      gate.load_expected(1, corrupted))
    tally.add([op])
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "bus_cycles_total" in tally.problems[op.id]


def test_raising_operation_is_counted_not_fatal():
    op = workloads._run_op(
        workloads.Operation("replay/x/y", "replay", "x", "y"),
        lambda: 1 / 0,
    )
    assert gate.check([op], {}, None, {}) == {
        "replay/x/y": "ZeroDivisionError: division by zero"
    }


def test_spans_and_residual_account_for_the_traced_wall():
    tracer = tracing.Tracer()
    with tracer.span("op", id="replay/tri/opts_all"):
        with tracer.span("replay.core", refs=10):
            with tracer.span("checkpoint.snapshot"):
                pass
        with tracer.span("replay.core", refs=30):
            pass
    wall = tracer.spans[0].duration * 1.5
    layers = tracing.layer_self_times(tracer.spans)
    accounted = sum(own for own, _ in layers.values())
    assert accounted == pytest.approx(tracer.spans[0].duration)
    metrics = tracing.layer_metrics(tracer.spans, [], wall, wall)
    assert metrics["replay.calls"][0] == 2
    assert metrics["replay.refs_per_call"][0] == 20
    assert accounted + metrics["trace_run.residual_s"][0] == pytest.approx(wall)
    validate_chrome_trace(tracing.chrome_trace(tracer.spans, "test"))


def test_stream_metrics_count_only_pessimistic_chunks():
    tracer = tracing.Tracer()
    for mode, refs in ((None, 8), (None, 8), ("lazypim", 8)):
        attrs = {"mode": mode} if mode else {}
        with tracer.span("replay.stream", **attrs):
            with tracer.span("replay.core", refs=refs):
                pass
    metrics = tracing.layer_metrics(tracer.spans, [], 1.0, 1.0)
    assert metrics["stream.chunks"] == (2, "2 pessimistic chunks")
    assert metrics["replay.calls"][0] == 3


def test_tracing_leaves_no_wrapper_behind():
    # A fresh interpreter, so that modules the program imports lazily
    # are first imported by the tracer itself.
    code = "\n".join([
        f"import importlib, sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]",
        "import tracing",
        "with tracing.Tracer().installed(): pass",
        "for m, attr, _ in tracing.BOUNDARIES + (tracing.CHUNK_READER,):",
        "    assert not hasattr(getattr(importlib.import_module(m), attr),"
        " '__wrapped__'), (m, attr)",
    ])
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
