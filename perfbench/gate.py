"""The correctness gate: simulated statistics are checked, never timed.

An operation fails when it raised, when its cycle ledger does not sum
exactly to its PE cycles, when (for the recorded seed) its counters
differ from those in ``expected_seed1.json``, when it differs from the
same operation in the run's first iteration, or when a workload
identity names it.  A failure is counted; it never aborts the run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.metrics import LedgerError, cycle_ledger

RECORDED_SEED = 1
EXPECTED_PATH = Path(__file__).with_name("expected_seed1.json")


def counters(stats) -> dict:
    """``SystemStats.as_dict()`` as it reads back from JSON."""
    return json.loads(json.dumps(stats.as_dict()))


def load_expected(seed: int, path: Path = EXPECTED_PATH) -> Optional[dict]:
    """Recorded counters per operation id, or None for other seeds."""
    if seed != RECORDED_SEED:
        return None
    return json.loads(path.read_text())["ops"]


def _differs(got: dict, want: dict) -> str:
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return "counters differ: " + ", ".join(keys)


def check(
    ops,
    identities: Dict[str, str],
    expected: Optional[dict],
    first: Dict[str, dict],
) -> Dict[str, str]:
    """``{operation id: problem}`` for every failed operation.

    *first* maps operation ids to the counters of the run's first
    iteration; it is filled on the first call and compared afterwards.
    """
    problems = dict(identities)
    for op in ops:
        if op.error is not None:
            problems[op.id] = op.error
            continue
        try:
            cycle_ledger(op.stats)
        except LedgerError as exc:
            problems[op.id] = str(exc)
            continue
        got = counters(op.stats)
        if expected is not None:
            want = expected.get(op.id)
            if want is None:
                problems[op.id] = "no recorded counters for this operation"
            elif got != want:
                problems[op.id] = "recorded " + _differs(got, want)
        previous = first.setdefault(op.id, got)
        if previous is not got and previous != got:
            problems.setdefault(op.id, "first iteration " + _differs(got, previous))
    return problems


def record(ops_by_workload: Dict[str, List], path: Path = EXPECTED_PATH) -> None:
    """Write the counters of every operation as the recorded values."""
    ops = {}
    for op_list in ops_by_workload.values():
        for op in op_list:
            if op.error is not None:
                raise RuntimeError(f"{op.id} failed: {op.error}")
            cycle_ledger(op.stats)
            got = counters(op.stats)
            if ops.setdefault(op.id, got) != got:
                raise RuntimeError(f"{op.id} differs between workloads")
    data = {"seed": RECORDED_SEED, "ops": dict(sorted(ops.items()))}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
