"""The zzmorse benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload rips-150 --seed 0 --seconds 40 --trace 0

Run it from anywhere inside a checkout; it benchmarks the ``zzmorse`` under
the checkout's ``src/``, interpreted, with nothing to build.  Metrics are
declared in ``BENCHMARK.json``; ``perfbench/workloads.py`` defines the
workloads and how each one's input follows from the seed.  ``levelset-25``
runs like the others but is left out of ``BENCHMARK.json``: over ten seeds
its run medians spread by 5-16%, against 2-7% for the other two.

Every step runs in its own fresh, single-threaded process, one at a time
(``worker.py``):

* ``--trace 0``: ``setup_s`` is the median of several fresh processes that
  each import ``zzmorse`` and build the raw input.  Measuring processes then
  generate the block stream and run ``run_stream`` on it again and again,
  for ``--seconds`` between them; ``gen_s``, ``engine_s`` and ``total_s``
  are medians over all those repetitions and ``peak_rss_mb`` is the largest
  peak of those processes.
* ``--trace 1``: a process alternates untraced runs with runs whose layer
  entry points are rebound to timing wrappers (``tracing.py``), and reports
  per-layer counts, median seconds and a per-layer self-time table.

End-to-end times are in reference seconds.  On a shared 2-vCPU Xeon VM
(Python 3.11) the CPU speed drifted by up to 1.5x over tens of seconds,
which moved run medians of plain wall time by 15-40% between runs.  So
every timed part is bracketed by a fixed pure-Python calibration loop
(``worker.calibrate``, which runs no benchmarked code), and its wall time
is scaled by ``CAL_REF_S`` over the mean of the two probes around it.  That
cut the spread to 2-7%.  Plain wall-time medians are printed beside each
metric and saved in the result file; per-layer seconds from ``--trace 1``
are plain wall time.

Every diagram and its ``Metrics`` are checked: against the digests in
``perfbench/reference.json`` at the default seed, recorded with
``python3 perfbench/worker.py record``, and against one ``morse=False``
pass, made before timing, at any other seed.  A stream that raises or
differs counts as failed, and the command then exits 1.  The last line of
standard output is the JSON result; the result with its context is also
written to ``perfbench/out/<workload>.trace<0|1>.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SETUP_PROBES = 7
# The measuring time is split over this many fresh processes.  A process's
# memory layout and string-hash seed shift all of its samples together, by up
# to 15% on random-p5, so one process per run made run medians drift.
MEASURE_PROCESSES = 3
# About what worker.calibrate() takes on an idle 2.1 GHz Xeon vCPU with
# Python 3.11; the constant only scales the reported times.
CAL_REF_S = 0.05
DEADLINE_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS")


class StepFailed(RuntimeError):
    pass


class Steps:
    """Starts worker processes one at a time, within the run's deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **dict.fromkeys(SINGLE_THREAD, "1"))

    def run(self, step, stdin=None, seconds=None):
        cmd = [sys.executable, str(BENCH / "worker.py"), step,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(seconds or self.args.seconds)]
        try:
            proc = subprocess.run(cmd, input=stdin, stdout=subprocess.PIPE,
                                  text=True, env=self.env, cwd=ROOT,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise StepFailed("worker step %r ran out of time" % step) from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise StepFailed("worker step %r exited with code %d"
                             % (step, proc.returncode))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    """SHA-256 over every file under src/, so a run names its code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def rescale(times, cals):
    """Each time in reference seconds: wall time times CAL_REF_S over the probe."""
    return [t * CAL_REF_S / statistics.fmean(c) for t, c in zip(times, cals)]


def end_to_end(steps, expected):
    probes = [steps.run("setup") for _ in range(SETUP_PROBES)]
    share = steps.args.seconds / MEASURE_PROCESSES
    parts = [steps.run("measure", json.dumps(expected), share)
             for _ in range(MEASURE_PROCESSES)]
    out = {key: [x for part in parts for x in part[key]]
           for key in ("gen_s", "engine_s", "cal_s")}
    out.update(attempted=sum(part["attempted"] for part in parts),
               failed=sum(part["failed"] for part in parts),
               peak_rss_mb=max(part["peak_rss_mb"] for part in parts),
               context=parts[0]["context"])
    cal = out["cal_s"]
    wall = {"setup_s": [p["setup_s"] for p in probes],
            "gen_s": out["gen_s"], "engine_s": out["engine_s"]}
    samples = {
        "setup_s": rescale(wall["setup_s"], [p["cal_s"] for p in probes]),
        "gen_s": rescale(out["gen_s"], [c[:2] for c in cal]),
        "engine_s": rescale(out["engine_s"], [c[1:] for c in cal]),
    }
    wall["total_s"] = [g + e for g, e in zip(wall["gen_s"], wall["engine_s"])]
    samples["total_s"] = [g + e for g, e in zip(samples["gen_s"],
                                                samples["engine_s"])]
    print("%-12s %10s %10s %10s %4s %10s" % ("metric", "median", "min", "max",
                                             "n", "wall med"))
    for name, values in samples.items():
        print("%-12s %10.4f %10.4f %10.4f %4d %10.4f"
              % (name, statistics.median(values), min(values), max(values),
                 len(values), statistics.median(wall[name])))
    print("%-12s %10.1f MB" % ("peak_rss_mb", out["peak_rss_mb"]))
    print("calibration probe: median %.4f s, reference %.4f s"
          % (statistics.median(c for row in cal for c in row), CAL_REF_S))
    print("failed %d of %d streams" % (out["failed"], out["attempted"]))
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["peak_rss_mb"] = out["peak_rss_mb"]
    return out, metrics, {"reference_s": samples, "wall_s": wall,
                          "calibration_s": cal}


def per_layer(steps, expected):
    out = steps.run("trace", json.dumps(expected))
    if out["failed"]:
        return out, {}, {}
    table = out["table"]
    kernel_s = table["kernel"][1]
    print("%-16s %9s %10s %10s %8s" % ("layer", "calls", "total s", "self s",
                                       "self %"))
    for name, (calls, total, self_s) in sorted(
            table.items(), key=lambda item: -item[1][2]):
        share = "%7.1f%%" % (100 * self_s / kernel_s) if name != "generators" else ""
        print("%-16s %9d %10.4f %10.4f %8s" % (name, calls, total, self_s, share))
    print("(self %% is of the traced engine time, %.4f s; median of %d traced"
          " runs, untraced engine %.4f s)"
          % (kernel_s, out["samples"], out["engine_s"]))
    for name, value in sorted(out["metrics"].items()):
        print("%-28s %s" % (name, value))
    if not out["restored"]:
        print("tracing left an entry point rebound", file=sys.stderr)
    if not out["repeatable"]:
        print("per-layer counts differ between traced runs", file=sys.stderr)
    return out, out["metrics"], {"table": table}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    recorded = json.loads((BENCH / "reference.json").read_text())
    parser.add_argument("--workload", required=True,
                        choices=[name for name in recorded if name != "seed"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zzmorse" / "__init__.py").is_file():
        sys.exit("no zzmorse source under %s" % (ROOT / "src"))
    steps = Steps(args)
    try:
        if args.seed == recorded["seed"]:
            expected = recorded[args.workload]["runs"]
        else:
            expected = steps.run("reference")
        measure = per_layer if args.trace else end_to_end
        out, metrics, samples = measure(steps, expected)
    except StepFailed as exc:
        sys.exit(str(exc))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    correct = (not out["failed"] and not missing
               and out.get("restored", True) and out.get("repeatable", True))
    if missing and not out["failed"]:
        print("metrics not produced: " + ", ".join(missing), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }
    context = dict(out["context"], workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, git_sha=git_sha(),
                   src_sha256=source_digest(),
                   python=platform.python_version(),
                   nproc=len(os.sched_getaffinity(0)),
                   platform=platform.platform())
    print("context: " + json.dumps(context, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s.trace%d.json" % (args.workload, args.trace))
    path.write_text(json.dumps({"context": context, "samples": samples,
                                "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
