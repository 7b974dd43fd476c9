"""Command-line front end and file formats.

Each subcommand builds its own block stream (from a point cloud, a scalar
image, or a stream file), hands it to ``run_stream`` and writes the interval
diagram plus an operation-count metrics block.  ``oracle-check`` instead
runs seeded random streams through both engine modes and the brute-force
decomposition and reports agreement.  A ZigzagError or OSError ends any
command with ``error: ...`` on stderr and exit code 2.  The package does
not import this module; run it as ``zzmorse`` or ``python -m zzmorse.cli``.
"""

import sys

import click
import numpy as np

from .cells import check_prime
from .errors import (BadHeader, BadParameters, BadStreamLine, CountMismatch,
                     EmptyFile, RaggedRow, ZigzagError)
from .generators import (ScalarImage, _extents, _integer, _real,
                         as_point_cloud, even_levels, levelset_stream,
                         oscillating_rips_stream, random_block_stream)
from .kernel import run_stream
from .oracle import block_diagram
from .stream import BlockOp, ForwardCell

# -- file formats --------------------------------------------------------------------

def _open_text(path):
    # an undecodable byte becomes a lone surrogate, which _numbered refuses
    return open(path, encoding="utf-8", errors="surrogateescape")


def _numbered(fh, error, start=1):
    """enumerate(fh, start), raising ``error`` on a line that is not UTF-8."""
    for ln, line in enumerate(fh, start):
        try:
            line.encode()
        except UnicodeEncodeError:
            raise error("line %d is not UTF-8 text" % ln) from None
        yield ln, line


def parse_points(path):
    """Point cloud from whitespace-separated decimal rows, one point per line."""
    rows = []
    arity = None
    with _open_text(path) as fh:
        for ln, line in _numbered(fh, RaggedRow):
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
    with _open_text(path) as fh:
        # a header with an undecodable byte fails the checks below
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "dims":
            raise BadHeader("expected a 'dims nx ny nz' header line")
        try:
            dims = tuple(int(v) for v in header[1:])
        except ValueError:
            raise BadHeader("non-integer extent in %r" % (header,)) from None
        dims = _extents(dims)
        values = []
        for ln, line in _numbered(fh, CountMismatch, 2):
            try:
                values.extend(float(v) for v in line.split())
            except ValueError:
                raise CountMismatch("line %d is not decimal numbers" % ln) from None
    try:
        flat = np.asarray(values, dtype=float).reshape(dims, order="F")
    except ValueError:
        raise CountMismatch("expected %d values for dims %r, got %d"
                            % (dims[0] * dims[1] * dims[2], dims,
                               len(values))) from None
    return ScalarImage(dims, flat)


def parse_stream(path):
    """Block stream from one line per block: 'F' or 'B' plus cell records.

    A forward cell record is "id dim k f_1 c_1 ... f_k c_k" with k distinct
    facets; a backward record is the bare id.  Ids and coefficients are
    integers.
    """
    blocks = []
    with _open_text(path) as fh:
        for ln, line in _numbered(fh, BadStreamLine):
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


# -- commands ------------------------------------------------------------------------

def _run(p, command):
    """Check p and exit with ``command()``'s code; a ZigzagError or OSError
    prints ``error: ...`` and exits 2."""
    try:
        check_prime(p)
        code = command()
    except (ZigzagError, OSError) as exc:
        click.echo("error: %s" % exc, err=True)
        code = 2
    sys.exit(code)


def _diagram(stream, p, no_morse, validate, out, metrics_out):
    """Run a (blocks, scales) stream; write its diagram and metrics."""
    blocks, scales = stream
    intervals, metrics = run_stream(blocks, p=p, morse=not no_morse,
                                    validate=validate)
    _write(out, format_diagram(intervals, scales))
    if metrics_out is not None:
        _write(metrics_out, format_metrics(metrics))
    return 0


def _common(fn):
    for deco in (
        click.option("--field-char", "p", default=2, show_default=True,
                     help="Prime field characteristic."),
        click.option("--no-morse", is_flag=True,
                     help="Skip Morse reduction; run every cell."),
        click.option("--validate", is_flag=True,
                     help="Check that every boundary is a cycle before its "
                     "block runs."),
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
def rips(points, mu, nu, max_dim, p, **run):
    """Oscillating Rips zigzag of a point file."""
    _run(p, lambda: _diagram(oscillating_rips_stream(
        parse_points(points), mu, nu, max_dim), p, **run))


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
def levelset(image, epsilon, levels, seed, noise, p, **run):
    """Levelset zigzag of a scalar image file."""
    def command():
        if levels is not None:
            try:
                values = [float(v) for v in levels.split(",")]
            except ValueError:
                raise BadParameters(
                    "--levels expects comma-separated numbers") from None
        img = parse_image(image)
        if noise:
            rng = np.random.default_rng(_integer("seed", seed, 0))
            img = ScalarImage(img.dims, img.values + rng.uniform(
                0.0, _real("--noise", noise, 0), img.dims))
        if levels is None:
            if epsilon is None:
                raise BadParameters("levelset mode needs --epsilon or --levels")
            values = even_levels(img, epsilon)
        return _diagram(levelset_stream(img, values), p, **run)
    _run(p, command)


@main.command()
@click.argument("blocks", type=click.Path(exists=True, dir_okay=False))
@_common
def stream(blocks, p, **run):
    """Zigzag persistence of a block stream file."""
    _run(p, lambda: _diagram((parse_stream(blocks), None), p, **run))


@main.command(name="oracle-check")
@click.option("--seed", default=0, show_default=True, help="First seed.")
@click.option("--runs", default=25, show_default=True,
              help="Number of random streams.")
@click.option("--field-char", "p", default=2, show_default=True,
              help="Prime field characteristic.")
def oracle_check(seed, runs, p):
    """Differential test: engine vs brute-force decomposition."""
    def command():
        _integer("--runs", runs, 1)
        failures = 0
        for s in range(seed, seed + runs):
            blocks = random_block_stream(s, p=p)
            want = block_diagram(blocks, p)
            reduced = [tuple(i) for i in run_stream(blocks, p=p)[0]]
            plain = [tuple(i) for i in run_stream(blocks, p=p, morse=False)[0]]
            ok = reduced == want == plain
            failures += not ok
            click.echo("%s seed=%d intervals=%d"
                       % ("ok  " if ok else "FAIL", s, len(want)))
        click.echo("passed %d/%d" % (runs - failures, runs))
        return 1 if failures else 0
    _run(p, command)


if __name__ == "__main__":
    main()
