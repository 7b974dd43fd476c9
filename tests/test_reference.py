"""The engine still gives the benchmark's recorded seed-0 outputs.

``perfbench/reference.json`` holds a digest of every diagram and metrics
tuple that each benchmark workload gives at seed 0.  A change to the engine
that moves one of them would otherwise show only when the benchmark runs.
The worker module is read from the benchmark directory as it is.
"""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_seed_0_outputs_match_the_recorded_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # record() imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert worker.record() == json.loads((BENCH / "reference.json").read_text())
