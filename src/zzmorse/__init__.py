"""Streaming zigzag persistent homology with on-the-fly discrete Morse reduction."""

__version__ = "0.1.0"

from .cells import Complex, build_cubical, build_simplicial, field_inv
from .generators import (
    ScalarImage,
    circle_points,
    even_levels,
    fourier_image,
    furthest_point_ordering,
    levelset_stream,
    oscillating_rips_stream,
    rips_complex,
)
from .kernel import Interval, Metrics, run_stream
from .stream import BlockOp, ForwardCell

__all__ = [
    "BlockOp",
    "Complex",
    "ForwardCell",
    "Interval",
    "Metrics",
    "ScalarImage",
    "build_cubical",
    "build_simplicial",
    "circle_points",
    "even_levels",
    "field_inv",
    "fourier_image",
    "furthest_point_ordering",
    "levelset_stream",
    "oscillating_rips_stream",
    "rips_complex",
    "run_stream",
    "__version__",
]
