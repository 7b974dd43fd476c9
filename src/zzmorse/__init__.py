"""Streaming zigzag persistent homology with on-the-fly discrete Morse reduction."""

__version__ = "0.1.0"

from .generators import (
    ScalarImage,
    circle_points,
    even_levels,
    fourier_image,
    furthest_point_ordering,
    levelset_stream,
    oscillating_rips_stream,
)
from .kernel import Interval, Metrics, run_stream
from .stream import BlockOp, ForwardCell

__all__ = [
    "BlockOp",
    "ForwardCell",
    "Interval",
    "Metrics",
    "ScalarImage",
    "circle_points",
    "even_levels",
    "fourier_image",
    "furthest_point_ordering",
    "levelset_stream",
    "oscillating_rips_stream",
    "run_stream",
    "__version__",
]
