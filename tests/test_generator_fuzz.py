"""Every generator refuses a bad parameter with a named error.

Hypothesis draws each parameter either from its valid range or from values
of the wrong type or range, on tiny inputs.  A call must return or raise a
``ZigzagError``; a stream it returns must run through the engine.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zzmorse.errors import ZigzagError
from zzmorse.generators import (ScalarImage, as_point_cloud, circle_points,
                                even_levels, fourier_image,
                                furthest_point_ordering, levelset_stream,
                                oscillating_rips_stream, random_block_stream)
from zzmorse.kernel import run_stream

fuzz = settings(max_examples=100, deadline=None, derandomize=True,
                database=None)

SMALL = st.integers(-2, 6)
REAL = st.one_of(st.floats(-3, 3), st.floats())
JUNK = st.one_of(
    st.none(), st.booleans(), st.text("a1 .", max_size=2), SMALL, REAL,
    st.lists(SMALL, max_size=3), st.dictionaries(SMALL, SMALL, max_size=2),
    st.builds(np.int64, SMALL), st.builds(np.float64, REAL),
    st.complex_numbers(max_magnitude=2), st.just(object()),
)
BAD_POINTS = st.one_of(
    JUNK, st.lists(st.lists(REAL, max_size=3), max_size=4),
    st.lists(st.one_of(REAL, JUNK), max_size=4))
POINTS = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.floats(-2, 2), min_size=d, max_size=d), min_size=1,
    max_size=5))
SEED = st.integers(0, 99)
DIM = st.integers(0, 3)
EXTENT = st.integers(1, 3)


@st.composite
def arguments(draw, bad=None, **valid):
    """Valid values for every parameter, then junk in up to two of them.

    ``bad`` maps a parameter to its own junk strategy (default ``JUNK``).
    """
    bad = bad or {}
    out = {name: draw(strategy) for name, strategy in valid.items()}
    for name in draw(st.lists(st.sampled_from(sorted(valid)), max_size=2,
                              unique=True)):
        out[name] = draw(bad.get(name, JUNK))
    return out


def call(fn, *args, **kwargs):
    """fn's result, or None if it raised a ZigzagError."""
    try:
        return fn(*args, **kwargs)
    except ZigzagError:
        return None


def runs(out, p=2):
    """A (blocks, scales) result, if any, runs through the engine."""
    if out is not None:
        run_stream(out[0], p=p)


@st.composite
def images(draw):
    """A ScalarImage from ``fourier_image`` or from drawn values, or junk."""
    kind = draw(st.sampled_from(["fourier", "values", "junk"]))
    if kind == "fourier":
        return call(fourier_image, **draw(arguments(
            dims=st.tuples(EXTENT, EXTENT, EXTENT), seed=SEED, terms=DIM)))
    if kind == "values":
        dims = draw(st.tuples(EXTENT, EXTENT, EXTENT))
        size = dims[0] * dims[1] * dims[2]
        return call(ScalarImage, **draw(arguments(
            dims=st.just(dims),
            values=st.lists(st.floats(-3, 3), min_size=size, max_size=size))))
    return draw(JUNK)


@fuzz
@given(args=arguments(n=st.integers(1, 6), seed=SEED,
                      jitter=st.floats(0, 1)))
def test_circle_points(args):
    call(circle_points, **args)


@fuzz
@given(args=arguments(bad={"points": BAD_POINTS}, points=POINTS,
                      start=st.integers(0, 4)))
def test_point_clouds_and_orderings(args):
    call(as_point_cloud, args["points"])
    call(furthest_point_ordering, **args)


@fuzz
@given(args=arguments(bad={"points": BAD_POINTS}, points=POINTS,
                      mu=st.floats(0.5, 3), nu=st.floats(3, 8), max_dim=DIM,
                      start=st.integers(0, 4)))
def test_oscillating_rips_stream(args):
    runs(call(oscillating_rips_stream, **args))


@fuzz
@given(image=images(), args=arguments(
    levels=st.lists(st.floats(-3, 3), max_size=5, unique=True).map(sorted),
    spacing=st.floats(0.05, 2)))
def test_levelset_streams(image, args):
    runs(call(levelset_stream, image, args["levels"]))
    levels = call(even_levels, image, args["spacing"])
    if levels is not None and len(levels) <= 8:
        runs(call(levelset_stream, image, levels))


@fuzz
@given(args=arguments(
    rng=st.one_of(SEED, st.builds(random.Random, SEED)),
    p=st.sampled_from([2, 3, 5]), max_live=st.integers(1, 6),
    max_arrows=st.integers(4, 12), max_dim=DIM))
def test_random_block_stream(args):
    blocks = call(random_block_stream, **args)
    if blocks is not None:
        run_stream(blocks, p=args["p"])
