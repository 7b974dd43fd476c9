"""Every entry point that the benchmark's per-layer trace hooks is reached.

``perfbench/tracing.py`` times the engine by rebinding the names in its
``HOOKS`` table.  A refactor that stops calling one of them through that
name would only zero the layer's counts; this test makes it fail instead.
The tracing module is read from the benchmark directory as it is.
"""

import importlib.util
from pathlib import Path

from zzmorse.generators import random_block_stream
from zzmorse.kernel import run_stream
from zzmorse.stream import Split

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_is_reached():
    tracing = load_tracing()
    reached = set()

    class HitTracer(tracing.Tracer):
        """Also records which hooked object each call went through."""

        def wrap(self, name, fn, count):
            timed = super().wrap(name, fn, count)

            def hit(*args, **kwargs):
                reached.add(fn)
                return timed(*args, **kwargs)

            return hit

    splits = []
    tracer = HitTracer()
    with tracing.traced(tracer):
        for seed in range(20):
            blocks = random_block_stream(seed, p=5)
            run_stream(blocks, p=5,
                       observer=lambda state, matrix, op: splits.append(
                           isinstance(op, Split)))
    assert any(splits)

    table = tracing.layer_table(tracer.spans)
    assert {name for _, _, name, _ in tracing.HOOKS} <= table.keys()
    for module, attr, name, _, obj in tracing.resolve_hooks():
        assert obj in reached, "%s.%s is never called" % (module, attr)
