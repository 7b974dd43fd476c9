"""Command-line front end and file formats.

Subcommands build a block stream (from a point cloud, a scalar image, or a
stream file), run it through the engine, and write the interval diagram plus
an operation-count metrics block.  ``oracle-check`` instead runs seeded
random streams through both engine modes and the brute-force decomposition
and reports agreement.
"""

import sys
from collections import namedtuple

import click
import numpy as np

from .cells import check_prime
from .errors import (BadHeader, BadParameters, BadStreamLine, CountMismatch,
                     EmptyFile, RaggedRow, ZigzagError)
from .generators import (ScalarImage, as_point_cloud, blocks_to_stream,
                         even_levels, levelset_stream, oscillating_rips_stream,
                         random_block_stream)
from .kernel import run_stream
from .oracle import block_diagram
from .stream import BlockOp, ForwardCell

RunConfig = namedtuple(
    "RunConfig",
    "mode input_path out metrics_out p mu nu max_dim epsilon levels "
    "morse seed noise runs validate")
RunConfig.__new__.__defaults__ = (
    None, None, None, 2, 4.0, 6.0, 2, None, None,
    True, 0, 0.0, 25, False)


# -- file formats --------------------------------------------------------------------

def parse_points(path):
    """Point cloud from whitespace-separated decimal rows, one point per line."""
    rows = []
    arity = None
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if arity is None:
                arity = len(parts)
            elif len(parts) != arity:
                raise RaggedRow("line %d has %d values, expected %d"
                                % (ln, len(parts), arity))
            try:
                rows.append([float(v) for v in parts])
            except ValueError:
                raise RaggedRow("line %d is not decimal numbers" % ln) from None
    if not rows:
        raise EmptyFile("no points in %r" % (path,))
    return as_point_cloud(rows)


def parse_image(path):
    """Scalar image from a "dims nx ny nz" header and x-fastest values."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "dims":
            raise BadHeader("expected a 'dims nx ny nz' header line")
        try:
            dims = tuple(int(v) for v in header[1:])
        except ValueError:
            raise BadHeader("non-integer extent in %r" % (header,)) from None
        values = []
        for ln, line in enumerate(fh, 2):
            try:
                values.extend(float(v) for v in line.split())
            except ValueError:
                raise CountMismatch("line %d is not decimal numbers" % ln) from None
    try:
        flat = np.asarray(values, dtype=float).reshape(dims, order="F")
    except ValueError:
        raise CountMismatch("expected %d values for dims %r, got %d"
                            % (dims[0] * dims[1] * dims[2] if len(dims) == 3
                               else -1, dims, len(values))) from None
    return ScalarImage(dims, flat)


def emit_image(image):
    """Inverse of parse_image: header line plus x-fastest values."""
    lines = ["dims %d %d %d" % image.dims]
    flat = image.values.reshape(-1, order="F")
    for start in range(0, flat.size, 8):
        lines.append(" ".join("%.17g" % v for v in flat[start:start + 8]))
    return "\n".join(lines) + "\n"


def parse_stream(path):
    """Block stream from one line per block: 'F' or 'B' plus cell records.

    A forward cell record is "id dim k f_1 c_1 ... f_k c_k" with k distinct
    facets; a backward record is the bare id.  Ids and coefficients are
    integers.
    """
    blocks = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens:
                continue
            kind, rest = tokens[0], tokens[1:]
            try:
                if kind == "F":
                    cells = []
                    i = 0
                    while i < len(rest):
                        if len(rest) - i < 3:
                            raise BadStreamLine("line %d: truncated record" % ln)
                        cid, dim, k = (int(rest[i]), int(rest[i + 1]),
                                       int(rest[i + 2]))
                        i += 3
                        if k < 0 or len(rest) - i < 2 * k:
                            raise BadStreamLine("line %d: truncated record" % ln)
                        bnd = {}
                        for _ in range(k):
                            facet = int(rest[i])
                            if facet in bnd:
                                raise BadStreamLine("line %d: facet %d listed "
                                                    "twice" % (ln, facet))
                            bnd[facet] = int(rest[i + 1])
                            i += 2
                        cells.append(ForwardCell(cid, dim, bnd))
                    blocks.append(BlockOp("F", cells))
                elif kind == "B":
                    blocks.append(BlockOp("B", [int(t) for t in rest]))
                else:
                    raise BadStreamLine("line %d: unknown block kind %r"
                                        % (ln, kind))
            except ValueError:
                raise BadStreamLine("line %d: non-integer token" % ln) from None
    return blocks


def emit_stream(blocks):
    """Inverse of parse_stream for integer-labelled blocks."""
    lines = []
    for block in blocks:
        if block.direction == "F":
            parts = ["F"]
            for c in block.cells:
                parts += [str(int(c.cell)), str(int(c.dim)), str(len(c.boundary))]
                for facet, coeff in c.boundary.items():
                    parts += [str(int(facet)), str(int(coeff))]
        else:
            parts = ["B"] + [str(int(c)) for c in block.cells]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


# -- output --------------------------------------------------------------------------

def format_diagram(intervals, scales=None):
    """Diagram text, one interval per line, sorted by (dim, birth, death)."""
    lines = []
    for iv in sorted(intervals):
        if scales is None:
            lines.append("%d %d %d" % (iv.dim, iv.birth, iv.death))
        else:
            lines.append("%d %d %d %.12g %.12g"
                         % (iv.dim, iv.birth, iv.death,
                            scales[iv.birth - 1], scales[iv.death - 1]))
    return "\n".join(lines) + ("\n" if lines else "")


def format_metrics(metrics):
    return "N=%d, n=%d, Xmax=%d, Amax=%d\n" % (
        metrics.raw_ops, metrics.reduced_ops,
        metrics.max_cells, metrics.max_critical)


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# -- the pipeline driver -------------------------------------------------------------

def _make_stream(config):
    if config.mode == "rips":
        points = parse_points(config.input_path)
        return oscillating_rips_stream(points, config.mu, config.nu,
                                       config.max_dim)
    if config.mode == "levelset":
        image = parse_image(config.input_path)
        if config.noise:
            rng = np.random.default_rng(config.seed)
            image = ScalarImage(
                image.dims,
                image.values + rng.uniform(0.0, config.noise, image.dims))
        levels = config.levels
        if levels is None:
            if config.epsilon is None:
                raise BadParameters("levelset mode needs --epsilon or --levels")
            levels = even_levels(image, config.epsilon)
        return levelset_stream(image, levels)
    if config.mode == "stream":
        return parse_stream(config.input_path), None
    raise BadParameters("unknown mode %r" % (config.mode,))


def _oracle_check(config):
    failures = 0
    for k in range(config.runs):
        seed = config.seed + k
        ops = random_block_stream(seed, p=config.p)
        stream = blocks_to_stream(ops)
        want = block_diagram(ops, config.p)
        reduced = [tuple(i) for i in run_stream(
            stream, p=config.p, morse=True, validate=config.validate)[0]]
        plain = [tuple(i) for i in run_stream(
            stream, p=config.p, morse=False, validate=config.validate)[0]]
        ok = reduced == want == plain
        failures += not ok
        click.echo("%s seed=%d intervals=%d"
                   % ("ok  " if ok else "FAIL", seed, len(want)))
    click.echo("passed %d/%d" % (config.runs - failures, config.runs))
    return 1 if failures else 0


def run_cli(config):
    """Run one configured pipeline; returns a process exit code."""
    try:
        check_prime(config.p)
        if config.mode == "oracle-check":
            return _oracle_check(config)
        blocks, scales = _make_stream(config)
        intervals, metrics = run_stream(blocks, p=config.p,
                                        morse=config.morse,
                                        validate=config.validate)
        _write(config.out, format_diagram(intervals, scales))
        if config.metrics_out is not None:
            _write(config.metrics_out, format_metrics(metrics))
        return 0
    except (ZigzagError, OSError) as exc:
        click.echo("error: %s" % exc, err=True)
        return 2


# -- click wiring --------------------------------------------------------------------

def _common(fn):
    for deco in (
        click.option("--field-char", "p", default=2, show_default=True,
                     help="Prime field characteristic."),
        click.option("--no-morse", is_flag=True,
                     help="Skip Morse reduction; run every cell."),
        click.option("--validate", is_flag=True,
                     help="Enable runtime invariant assertions."),
        click.option("--out", type=click.Path(dir_okay=False),
                     help="Diagram file (default: stdout)."),
        click.option("--metrics-out", type=click.Path(dir_okay=False),
                     help="Metrics sidecar file."),
    ):
        fn = deco(fn)
    return fn


@click.group()
def main():
    """Streaming zigzag persistence with on-the-fly Morse reduction."""


@main.command()
@click.argument("points", type=click.Path(exists=True, dir_okay=False))
@click.option("--mu", default=4.0, show_default=True,
              help="Lower Rips scale factor.")
@click.option("--nu", default=6.0, show_default=True,
              help="Upper Rips scale factor.")
@click.option("--max-dim", default=2, show_default=True,
              help="Top simplex dimension.")
@_common
def rips(points, mu, nu, max_dim, p, no_morse, validate, out, metrics_out):
    """Oscillating Rips zigzag of a point file."""
    sys.exit(run_cli(RunConfig(
        mode="rips", input_path=points, out=out, metrics_out=metrics_out,
        p=p, mu=mu, nu=nu, max_dim=max_dim, morse=not no_morse,
        validate=validate)))


@main.command()
@click.argument("image", type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", type=float, default=None,
              help="Even level spacing over the value range.")
@click.option("--levels", default=None,
              help="Comma-separated explicit level values.")
@click.option("--seed", default=0, show_default=True,
              help="Seed for the noise stream.")
@click.option("--noise", default=0.0, show_default=True,
              help="Max additive uniform vertex noise.")
@_common
def levelset(image, epsilon, levels, seed, noise, p, no_morse, validate,
             out, metrics_out):
    """Levelset zigzag of a scalar image file."""
    parsed = None
    if levels is not None:
        try:
            parsed = [float(v) for v in levels.split(",")]
        except ValueError:
            click.echo("error: --levels expects comma-separated numbers",
                       err=True)
            sys.exit(2)
    sys.exit(run_cli(RunConfig(
        mode="levelset", input_path=image, out=out, metrics_out=metrics_out,
        p=p, epsilon=epsilon, levels=parsed, morse=not no_morse, seed=seed,
        noise=noise, validate=validate)))


@main.command()
@click.argument("blocks", type=click.Path(exists=True, dir_okay=False))
@_common
def stream(blocks, p, no_morse, validate, out, metrics_out):
    """Zigzag persistence of a block stream file."""
    sys.exit(run_cli(RunConfig(
        mode="stream", input_path=blocks, out=out, metrics_out=metrics_out,
        p=p, morse=not no_morse, validate=validate)))


@main.command(name="oracle-check")
@click.option("--seed", default=0, show_default=True, help="First seed.")
@click.option("--runs", default=25, show_default=True,
              help="Number of random streams.")
@click.option("--field-char", "p", default=2, show_default=True,
              help="Prime field characteristic.")
@click.option("--validate", is_flag=True,
              help="Enable runtime invariant assertions.")
def oracle_check(seed, runs, p, validate):
    """Differential test: engine vs brute-force decomposition."""
    sys.exit(run_cli(RunConfig(mode="oracle-check", p=p, seed=seed,
                               runs=runs, validate=validate)))


if __name__ == "__main__":
    main()
