"""Consistency checks on the benchmark's traced run, on small inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import zzmorse  # noqa: E402
from zzmorse.generators import blocks_to_stream, random_block_stream  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def small_streams():
    """(streams, p) shaped like each workload, but small enough for a test."""
    rips, _ = zzmorse.oscillating_rips_stream(
        zzmorse.circle_points(30, seed=7), 4, 6, max_dim=2, start=3)
    image = zzmorse.fourier_image((9, 9, 9), seed=11, terms=3)
    level, _ = zzmorse.levelset_stream(image, zzmorse.even_levels(image, 0.2))
    randoms = [blocks_to_stream(random_block_stream(s, p=5)) for s in range(40)]
    return [([rips], 2), ([level], 2), (randoms, 5)]


def traced_run(streams, p):
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        outputs = worker._engine(streams, p, tracer)
    table = tracing.layer_table(tracer.spans)
    return outputs, worker.layer_counts(table, tracer.counts, outputs), table


def originals():
    return [(module, attr, getattr(importlib.import_module(module), attr))
            for module, attr, _, _ in tracing.HOOKS]


@pytest.mark.parametrize("case", range(3), ids=["rips", "levelset", "random"])
def test_traced_run_is_consistent(case):
    streams, p = small_streams()[case]
    before = originals()
    plain = worker._engine(streams, p)
    first, counts, table = traced_run(streams, p)
    second, again, _ = traced_run(streams, p)

    assert first == plain and second == plain
    assert counts == again
    assert (counts["matrix.insert.calls"] + counts["matrix.remove.calls"]
            + 2 * counts["matrix.unpair.calls"]) == counts["kernel.reduced_ops"]
    assert counts["kernel.raw_ops"] == sum(m.raw_ops for _, m in plain)
    assert table["kernel"][0] == len(streams)
    for module, attr, obj in before:
        assert getattr(importlib.import_module(module), attr) is obj


def test_bindings_restored_after_an_exception():
    before = originals()
    with pytest.raises(ZeroDivisionError):
        with tracing.traced(tracing.Tracer()):
            1 / 0
    for module, attr, obj in before:
        assert getattr(importlib.import_module(module), attr) is obj


def test_missing_hook_is_named(monkeypatch):
    before = [o for o in originals() if o[1] != "unpair_in_matrix"]
    monkeypatch.delattr("zzmorse.kernel.unpair_in_matrix")
    with pytest.raises(tracing.MissingHook, match="zzmorse.kernel.unpair_in_matrix"):
        with tracing.traced(tracing.Tracer()):
            pass
    for module, attr, obj in before:
        assert getattr(importlib.import_module(module), attr) is obj


def test_self_time_excludes_children():
    spans = [("kernel", 0.0, 10.0, -1), ("stream.apply", 1.0, 5.0, 0),
             ("morse.flow", 2.0, 3.0, 1), ("matrix.insert", 6.0, 8.0, 0)]
    table = tracing.layer_table(spans)
    assert table["kernel"] == [1, 10.0, 4.0]
    assert table["stream.apply"] == [1, 4.0, 3.0]
    assert table["morse.flow"] == [1, 1.0, 1.0]


def test_checker_flags_changed_output():
    streams, p = small_streams()[2]
    outputs = worker._engine(streams, p)
    recorded = workloads.Checker([workloads.run_digest(*out) for out in outputs])
    assert worker._failures(outputs, recorded) == 0
    dim, birth, death = outputs[0][0][0]
    broken = [([(dim, birth, death + 1)] + outputs[0][0][1:], outputs[0][1])]
    assert worker._failures(broken + outputs[1:], recorded) == 1
    assert worker._failures([RuntimeError("boom")] + outputs[1:], recorded) == 1

    unreduced = workloads.Checker([
        {"intervals": workloads.interval_digest(iv), "raw_ops": m.raw_ops,
         "max_cells": m.max_cells} for iv, m in outputs])
    assert worker._failures(outputs, unreduced) == 0
    shifted = [(outputs[0][0], outputs[0][1]._replace(
        reduced_ops=outputs[0][1].reduced_ops + 1))]
    assert worker._failures(shifted + outputs[1:], unreduced) == 1


def test_benchmark_does_not_import_the_backend_module():
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    "%s.%s" % (node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any("_backend" in n for n in names), path.name
