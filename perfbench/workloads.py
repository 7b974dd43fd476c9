"""The benchmark's workloads and the digests that check their diagrams.

Each workload turns ``--seed`` into a raw input (``setup``), turns that into
one or more block streams (``generate``) and names the field prime the
engine runs with.  Seed 0 reproduces the ROADMAP baseline presets exactly;
other seeds change the input while keeping the amount of work within about
1% of seed 0, so that run-to-run spread measures the machine and the code,
not the size of the input:

* ``rips-150`` starts the furthest-point ordering at point ``seed % 150``
  of the fixed cloud ``circle_points(150, seed=7)``.
* ``levelset-25`` adds seeded uniform noise in [0, 0.002) to the voxel
  values, as ``zzmorse levelset --noise 0.002 --seed <seed>`` does (1% of
  the 0.2 level spacing).  Reorienting the image or changing its Fourier
  seed was tried and rejected: either moves the reduced op count by up to
  2.4x.
* ``random-p5`` runs the 3000 random streams with seeds
  ``3000*seed .. 3000*seed + 2999``.

Only the public API is used: the generators, ``run_stream`` and ``Metrics``.
"""

import hashlib
import json

import numpy as np

import zzmorse
from zzmorse.generators import (ScalarImage, blocks_to_stream,
                                random_block_stream)


class Rips:
    name = "rips-150"
    p = 2

    def params(self, seed):
        return {"generator": "oscillating_rips_stream",
                "points": "circle_points(150, seed=7)", "mu": 4, "nu": 6,
                "max_dim": 2, "start": seed % 150, "p": self.p}

    def setup(self, seed):
        return zzmorse.circle_points(150, seed=7)

    def generate(self, raw, seed):
        blocks, _ = zzmorse.oscillating_rips_stream(
            raw, 4, 6, max_dim=2, start=seed % 150)
        return [blocks]


class Levelset:
    name = "levelset-25"
    p = 2
    noise = 0.002

    def params(self, seed):
        return {"generator": "levelset_stream",
                "image": "fourier_image((25, 25, 25), seed=11, terms=3)",
                "levels": "even_levels(image, 0.2)",
                "noise": self.noise if seed else 0.0, "noise_seed": seed,
                "p": self.p}

    def setup(self, seed):
        image = zzmorse.fourier_image((25, 25, 25), seed=11, terms=3)
        if seed:
            rng = np.random.default_rng(seed)
            image = ScalarImage(image.dims, image.values
                                + rng.uniform(0.0, self.noise, image.dims))
        return image

    def generate(self, raw, seed):
        blocks, _ = zzmorse.levelset_stream(raw, zzmorse.even_levels(raw, 0.2))
        return [blocks]


class RandomP5:
    name = "random-p5"
    p = 5
    streams = 3000

    def params(self, seed):
        first = self.streams * seed
        return {"generator": "random_block_stream",
                "stream_seeds": [first, first + self.streams - 1],
                "p": self.p}

    def setup(self, seed):
        first = self.streams * seed
        return range(first, first + self.streams)

    def generate(self, raw, seed):
        return [blocks_to_stream(random_block_stream(s, p=self.p)) for s in raw]


WORKLOADS = {w.name: w for w in (Rips(), Levelset(), RandomP5())}
DEFAULT_SEED = 0


def interval_digest(intervals):
    """Short hash of a diagram, independent of how intervals are typed."""
    rows = sorted((int(d), int(b), int(e)) for d, b, e in intervals)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def run_digest(intervals, metrics):
    """Short hash of a diagram together with its four ``Metrics`` counts."""
    counts = [int(v) for v in metrics]
    return hashlib.sha256(
        (interval_digest(intervals) + json.dumps(counts)).encode()
    ).hexdigest()[:12]


def unreduced_reference(workload, seed):
    """Reference for a non-default seed: one ``morse=False`` pass per stream.

    The unreduced run shares the column kernel but no Morse code, and its
    diagram, raw op count and largest complex must match the reduced run's.
    """
    raw = workload.setup(seed)
    out = []
    for blocks in workload.generate(raw, seed):
        intervals, metrics = zzmorse.run_stream(blocks, p=workload.p,
                                                morse=False)
        out.append({"intervals": interval_digest(intervals),
                    "raw_ops": metrics.raw_ops,
                    "max_cells": metrics.max_cells})
    return out


class Checker:
    """Compares each stream's diagram and ``Metrics`` with its reference.

    A reference entry is either a recorded ``run_digest`` string (the default
    seed) or an ``unreduced_reference`` record; for the latter, the reduced
    op count and largest critical complex must repeat exactly on every run.
    """

    def __init__(self, expected):
        self.expected = expected
        self.pinned = {}

    def ok(self, index, intervals, metrics):
        ref = self.expected[index]
        if isinstance(ref, str):
            return run_digest(intervals, metrics) == ref
        reduced = (metrics.reduced_ops, metrics.max_critical)
        return (interval_digest(intervals) == ref["intervals"]
                and metrics.raw_ops == ref["raw_ops"]
                and metrics.max_cells == ref["max_cells"]
                and self.pinned.setdefault(index, reduced) == reduced)
