"""One benchmark step in a fresh, single-threaded process; prints one JSON line.

    python3 perfbench/worker.py STEP --workload NAME --seed N [--seconds S]

``run.py`` starts it with ``PYTHONPATH=<checkout>/src``.  Steps:

* ``setup``: import ``zzmorse`` and build the raw input; prints the seconds.
* ``reference``: the ``morse=False`` reference for a non-default seed.
* ``measure``: generate and run the workload repeatedly for S seconds.
* ``trace``: alternate untraced and traced engine runs for S seconds and
  report per-layer metrics; writes the last traced run's spans to
  ``perfbench/out/<workload>.spans.tsv.gz``.
* ``record``: the seed-0 reference digests for every workload, as stored
  in ``perfbench/reference.json``.

``measure`` and ``trace`` read their reference, a JSON list with one entry
per stream, on standard input.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
MIN_SAMPLES = 2
CALIBRATION_LOOPS = 600_000


def _engine(streams, p, tracer=None):
    """Run every stream; an exception stands in for that stream's output."""
    import zzmorse

    outputs = []
    for blocks in streams:
        try:
            if tracer is None:
                outputs.append(zzmorse.run_stream(blocks, p=p))
            else:
                with tracer.span("kernel"):
                    outputs.append(zzmorse.run_stream(blocks, p=p))
        except Exception as exc:  # counted as a failed stream
            outputs.append(exc)
    return outputs


def _failures(outputs, checker):
    """How many streams raised or differ from the reference; reports the first."""
    bad = 0
    for index in range(len(checker.expected)):
        out = outputs[index] if index < len(outputs) else None
        if isinstance(out, Exception):
            ok = False
            if not bad:
                traceback.print_exception(out, file=sys.stderr)
        else:
            ok = out is not None and checker.ok(index, *out)
            if not ok and not bad:
                print("stream %d differs from its reference" % index,
                      file=sys.stderr)
        bad += not ok
    return bad


def calibrate():
    """Seconds one fixed pure-Python loop takes now: the machine's current speed.

    The loop touches no benchmark or zzmorse code, so a change to the
    program never moves it, while a slower or faster shared machine does.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def measure(workload, seed, seconds, checker):
    """Generate and run the workload until ``seconds`` pass; one sample per pass.

    The calibration loop runs before generation, between generation and
    the engine, and after the engine, so each timed part has a probe on
    either side of it.
    """
    raw = workload.setup(seed)
    gen, engine, cal = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(engine) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        gc.collect()
        before = calibrate()
        t0 = time.perf_counter()
        streams = workload.generate(raw, seed)
        t1 = time.perf_counter()
        between = calibrate()
        t2 = time.perf_counter()
        outputs = _engine(streams, workload.p)
        t3 = time.perf_counter()
        cal.append((before, between, calibrate()))
        gen.append(t1 - t0)
        engine.append(t3 - t2)
        attempted += len(checker.expected)
        failed += _failures(outputs, checker)
        del streams, outputs  # keep one iteration's blocks alive at a time
    return {"gen_s": gen, "engine_s": engine, "cal_s": cal,
            "attempted": attempted, "failed": failed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}


def layer_counts(table, counts, outputs):
    """Work counts of one traced run of every stream; these repeat exactly."""
    runs = [m for _, m in outputs]
    out = {name: table.get(span, (0,))[0] for name, span in (
        ("morse.flow.calls", "morse.flow"),
        ("morse.coreduce.calls", "morse.coreduce"),
        ("stream.atomize.calls", "stream.atomize"),
        ("stream.apply.calls", "stream.apply"),
        ("matrix.insert.calls", "matrix.insert"),
        ("matrix.remove.calls", "matrix.remove"),
        ("matrix.unpair.calls", "matrix.unpair"))}
    out.update(counts)
    out.update({
        "kernel.raw_ops": sum(m.raw_ops for m in runs),
        "kernel.reduced_ops": sum(m.reduced_ops for m in runs),
        "kernel.max_cells": max(m.max_cells for m in runs),
        "kernel.max_critical": max(m.max_critical for m in runs),
    })
    return out


def layer_seconds(table):
    """Seconds per layer of one traced run: inclusive, or self where named."""
    def row(span):
        return table.get(span, (0, 0.0, 0.0))

    out = {name + ".s": row(name)[1] for name in (
        "morse.flow", "morse.coreduce", "stream.atomize", "matrix.insert",
        "matrix.remove", "matrix.unpair")}
    out["stream.apply.self_s"] = row("stream.apply")[2]
    out["kernel.self_s"] = row("kernel")[2]
    return out


def trace(workload, seed, seconds, checker):
    import zzmorse
    from tracing import Tracer, layer_table, resolve_hooks, traced, write_spans

    hooks = resolve_hooks()
    raw = workload.setup(seed)
    gen_tracer = Tracer()
    with gen_tracer.span("generators"):
        streams = workload.generate(raw, seed)
    t0 = time.perf_counter()
    for blocks in streams:
        zzmorse.run_stream(blocks, p=workload.p, morse=False)
    unreduced_s = time.perf_counter() - t0

    plain, traced_s, counts, seconds_per_run = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(traced_s) < 2 or time.perf_counter() - start < seconds:
        gc.collect()
        t0 = time.perf_counter()
        outputs = _engine(streams, workload.p)
        plain.append(time.perf_counter() - t0)
        failed += _failures(outputs, checker)

        tracer = Tracer()
        gc.collect()
        with traced(tracer):
            t0 = time.perf_counter()
            outputs = _engine(streams, workload.p, tracer)
            traced_s.append(time.perf_counter() - t0)
        attempted += 2 * len(checker.expected)
        failed += _failures(outputs, checker)
        if failed:
            break
        table = layer_table(tracer.spans)
        counts.append(layer_counts(table, tracer.counts, outputs))
        seconds_per_run.append(layer_seconds(table))

    restored = all(getattr(importlib.import_module(module), attr) is obj
                   for module, attr, _, _, obj in hooks)
    result = {"attempted": attempted, "failed": failed, "restored": restored,
              "repeatable": all(c == counts[0] for c in counts)}
    if failed:
        return result

    metrics = dict(counts[0])
    for name in seconds_per_run[0]:
        metrics[name] = statistics.median(run[name] for run in seconds_per_run)
    engine_s = statistics.median(plain)
    matched = 2 * metrics["morse.coreduce.pairs"]
    metrics.update({
        "generators.blocks": sum(len(blocks) for blocks in streams),
        "generators.cells": sum(len(b.cells) for blocks in streams
                                for b in blocks),
        "morse.coreduce.pair_frac":
            matched / (matched + metrics["morse.coreduce.critical"]),
        "kernel.op_gain": metrics["kernel.raw_ops"]
                          / metrics["kernel.reduced_ops"],
        "kernel.us_per_raw_op": engine_s / metrics["kernel.raw_ops"] * 1e6,
        "kernel.unreduced_engine_s": unreduced_s,
        "kernel.time_gain": unreduced_s / engine_s,
        "trace.overhead_s": statistics.median(
            t - p for t, p in zip(traced_s, plain)),
    })
    OUT.mkdir(exist_ok=True)
    write_spans(tracer.spans + gen_tracer.spans,
                OUT / ("%s.spans.tsv.gz" % workload.name))
    table["generators"] = layer_table(gen_tracer.spans)["generators"]
    result.update(metrics=metrics, table=table, engine_s=engine_s,
                  samples=len(traced_s))
    return result


def record():
    import workloads

    seed = workloads.DEFAULT_SEED
    out = {"seed": seed}
    for name, workload in workloads.WORKLOADS.items():
        streams = workload.generate(workload.setup(seed), seed)
        runs = [_engine([blocks], workload.p)[0] for blocks in streams]
        metrics = [m for _, m in runs]
        out[name] = {
            "raw_ops": sum(m.raw_ops for m in metrics),
            "reduced_ops": sum(m.reduced_ops for m in metrics),
            "runs": [workloads.run_digest(*run) for run in runs],
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=["setup", "reference", "measure",
                                         "trace", "record"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    before = calibrate() if args.step == "setup" else None
    t0 = time.perf_counter()
    import workloads
    import zzmorse

    src = (ROOT / "src" / "zzmorse").resolve()
    if Path(zzmorse.__file__).resolve().parent != src:
        sys.exit("zzmorse was imported from %s, not %s"
                 % (zzmorse.__file__, src))
    if args.step == "record":
        print(json.dumps(record()))
        return
    workload = workloads.WORKLOADS[args.workload]
    if args.step == "setup":
        workload.setup(args.seed)
        setup_s = time.perf_counter() - t0
        print(json.dumps({"setup_s": setup_s, "cal_s": (before, calibrate())}))
        return
    if args.step == "reference":
        print(json.dumps(workloads.unreduced_reference(workload, args.seed)))
        return
    checker = workloads.Checker(json.load(sys.stdin))
    step = measure if args.step == "measure" else trace
    result = step(workload, args.seed, args.seconds, checker)
    backend = getattr(zzmorse, "backend", None)
    result["context"] = {"params": workload.params(args.seed),
                         "backend": backend() if backend else None}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
