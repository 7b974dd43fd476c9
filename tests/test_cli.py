"""File formats and the command-line pipeline."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from audits import emit_image, emit_stream
from zzmorse.cli import (format_diagram, format_metrics, main, parse_image,
                         parse_points, parse_stream)
from zzmorse.errors import (BadHeader, BadStreamLine, CountMismatch,
                            EmptyDims, EmptyFile, RaggedRow)
from zzmorse.generators import (ScalarImage, fourier_image, levelset_stream,
                                random_block_stream)
from zzmorse.kernel import Interval, run_stream


# -- point files ---------------------------------------------------------------------

def test_points_roundtrip(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0 0\n1 0\n")
    pts = parse_points(path)
    assert pts.shape == (2, 2)
    assert pts[1, 0] == 1.0


def test_empty_point_file(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("")
    with pytest.raises(EmptyFile):
        parse_points(path)


def test_ragged_point_file(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0 0\n1\n")
    with pytest.raises(RaggedRow):
        parse_points(path)
    path.write_text("0 zero\n")
    with pytest.raises(RaggedRow):
        parse_points(path)


def test_non_utf8_point_file(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_bytes(b"0 0\n1 \xff\n")
    with pytest.raises(RaggedRow, match="line 2 is not UTF-8 text"):
        parse_points(path)


# -- image files ---------------------------------------------------------------------

def test_image_header_and_values(tmp_path):
    path = tmp_path / "img.txt"
    path.write_text("dims 2 1 1\n0.0 1.0\n")
    img = parse_image(path)
    assert img.dims == (2, 1, 1)
    assert img.values[1, 0, 0] == 1.0


def test_image_values_are_x_fastest(tmp_path):
    path = tmp_path / "img.txt"
    path.write_text("dims 2 2 1\n1 2 3 4\n")
    img = parse_image(path)
    assert img.values[1, 0, 0] == 2.0
    assert img.values[0, 1, 0] == 3.0


def test_image_count_mismatch(tmp_path):
    path = tmp_path / "img.txt"
    path.write_text("dims 2 2 1\n0 0 0\n")
    with pytest.raises(CountMismatch):
        parse_image(path)
    path.write_text("dims 2 1 1\n0 x\n")
    with pytest.raises(CountMismatch, match="line 2 is not decimal numbers"):
        parse_image(path)


def test_image_bad_header(tmp_path):
    path = tmp_path / "img.txt"
    path.write_text("0 0 0 0\n")
    with pytest.raises(BadHeader):
        parse_image(path)
    path.write_text("dims 2 two 1\n0 0\n")
    with pytest.raises(BadHeader):
        parse_image(path)
    # numpy's reshape would read one -1 as "infer" and multiply two away
    for extents in ("-2 -2 2", "-1 2 2"):
        path.write_text("dims %s\n%s\n" % (extents, " ".join(["0"] * 8)))
        with pytest.raises(EmptyDims, match="three positive extents, got "
                           r"\(%s\)" % extents.replace(" ", ", ")):
            parse_image(path)


def test_non_utf8_image_file(tmp_path):
    path = tmp_path / "img.txt"
    path.write_bytes(b"dims \xff 1 1\n0 0\n")
    with pytest.raises(BadHeader):
        parse_image(path)
    path.write_bytes(b"dims 2 1 1\n0\n\xfe\n")
    with pytest.raises(CountMismatch, match="line 3 is not UTF-8 text"):
        parse_image(path)


def test_image_roundtrip(tmp_path):
    img = fourier_image((3, 4, 2), seed=9, terms=3)
    path = tmp_path / "img.txt"
    path.write_text(emit_image(img))
    back = parse_image(path)
    assert back.dims == img.dims
    assert np.array_equal(back.values, img.values)


# -- stream files --------------------------------------------------------------------

def test_stream_roundtrip(tmp_path):
    blocks = random_block_stream(17, p=5)
    path = tmp_path / "run.stream"
    path.write_text(emit_stream(blocks))
    assert parse_stream(path) == blocks


def test_stream_parse_errors(tmp_path):
    path = tmp_path / "run.stream"
    path.write_text("X 1\n")
    with pytest.raises(BadStreamLine):
        parse_stream(path)
    path.write_text("F 1 0\n")
    with pytest.raises(BadStreamLine):
        parse_stream(path)
    path.write_text("F 1 0 2 3 1\n")
    with pytest.raises(BadStreamLine):
        parse_stream(path)
    path.write_text("B one\n")
    with pytest.raises(BadStreamLine):
        parse_stream(path)
    path.write_text("F 1 0 0 2 0 0\nF 3 1 2 1 1 1 -1\n")
    with pytest.raises(BadStreamLine, match="line 2: facet 1 listed twice"):
        parse_stream(path)


def test_non_utf8_stream_file(tmp_path):
    path = tmp_path / "run.stream"
    path.write_bytes(b"F 1 0 0\nF \xff\n")
    with pytest.raises(BadStreamLine, match="line 2 is not UTF-8 text"):
        parse_stream(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "run.stream"
    path.write_text("\nF 1 0 0\n\nB 1\n")
    assert len(parse_stream(path)) == 2


# -- output formatting ---------------------------------------------------------------

def test_diagram_lines_are_sorted():
    intervals = [Interval(1, 2, 3), Interval(0, 5, 6), Interval(0, 1, 4)]
    assert format_diagram(intervals) == "0 1 4\n0 5 6\n1 2 3\n"


def test_diagram_scale_annotations():
    text = format_diagram([Interval(0, 1, 2)], scales=[0.25, 1.5])
    assert text == "0 1 2 0.25 1.5\n"


def test_metrics_block_format():
    from zzmorse.kernel import Metrics
    assert format_metrics(Metrics(10, 4, 7, 3)) == "N=10, n=4, Xmax=7, Amax=3\n"


# -- the pipeline --------------------------------------------------------------------

def test_stream_mode_single_vertex(tmp_path):
    path = tmp_path / "run.stream"
    path.write_text("F 1 0 0\nB 1\n")
    runner = CliRunner()
    result = runner.invoke(main, ["stream", str(path)])
    assert result.exit_code == 0
    assert result.output == "0 1 1\n"


def test_stream_writes_diagram_and_metrics(tmp_path):
    src = tmp_path / "run.stream"
    src.write_text("F 1 0 0 2 0 0\nF 3 1 2 1 1 2 1\nB 3\nB 1 2\n")
    out = tmp_path / "dgm.txt"
    met = tmp_path / "met.txt"
    result = CliRunner().invoke(main, ["stream", str(src), "--out", str(out),
                                       "--metrics-out", str(met)])
    assert result.exit_code == 0
    assert out.read_text() == "0 1 1\n0 1 3\n0 3 3\n"
    assert met.read_text() == "N=6, n=6, Xmax=3, Amax=3\n"


def test_rips_mode_is_deterministic_and_morse_free(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n1 0\n0.5 0.9\n")
    outs = []
    for k, flags in enumerate(([], [], ["--no-morse"])):
        out = tmp_path / ("d%d.txt" % k)
        runner = CliRunner()
        result = runner.invoke(main, ["rips", str(pts), "--mu", "1",
                                      "--nu", "1.5", "--out", str(out)] + flags)
        assert result.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_levelset_mode_with_spacing(tmp_path):
    img = tmp_path / "img.txt"
    img.write_text("dims 3 1 1\n0 1 0\n")
    out = tmp_path / "d.txt"
    met = tmp_path / "m.txt"
    runner = CliRunner()
    result = runner.invoke(main, ["levelset", str(img), "--epsilon", "0.4",
                                  "--out", str(out), "--metrics-out", str(met),
                                  "--validate"])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines and all(ln.startswith("0 ") for ln in lines)
    n, red = (int(part.split("=")[1]) for part in
              met.read_text().strip().split(", ")[:2])
    assert red <= n


def test_levelset_noise_is_seeded(tmp_path):
    img = tmp_path / "img.txt"
    img.write_text("dims 3 2 1\n0 1 0 0.5 0.2 0.8\n")
    texts = []
    for seed in (1, 1, 2):
        out = tmp_path / "d.txt"
        runner = CliRunner()
        result = runner.invoke(main, ["levelset", str(img), "--epsilon", "0.3",
                                      "--noise", "0.4", "--seed", str(seed),
                                      "--out", str(out)])
        assert result.exit_code == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("noise, seed, message", [
    ("0.1", "-1", "seed must be an integer in [0, inf)"),
    ("-0.5", "0", "--noise must be a finite real number above 0"),
    ("nan", "0", "--noise must be a finite real number above 0"),
    ("inf", "0", "--noise must be a finite real number above 0")])
def test_levelset_noise_parameters_are_checked(tmp_path, noise, seed, message):
    img = tmp_path / "img.txt"
    img.write_text("dims 3 2 1\n0 1 0 0.5 0.2 0.8\n")
    result = CliRunner().invoke(main, ["levelset", str(img), "--epsilon", "0.5",
                                       "--noise", noise, "--seed", seed])
    assert result.exit_code == 2
    assert "error: " + message in result.output


def test_levelset_explicit_levels(tmp_path):
    path = tmp_path / "img.txt"
    path.write_text(emit_image(fourier_image((4, 3, 2), seed=5, terms=3)))
    blocks, scales = levelset_stream(parse_image(path), [-1, 0, 0.5, 1])
    runner = CliRunner()
    result = runner.invoke(main, ["levelset", str(path),
                                  "--levels", "-1,0,0.5,1"])
    assert result.exit_code == 0
    assert result.output == format_diagram(run_stream(blocks)[0], scales)


def test_levelset_requires_a_level_spec(tmp_path):
    img = tmp_path / "img.txt"
    img.write_text("dims 2 1 1\n0 1\n")
    runner = CliRunner()
    result = runner.invoke(main, ["levelset", str(img)])
    assert result.exit_code == 2
    assert "error:" in result.output
    result = runner.invoke(main, ["levelset", str(img), "--levels", "a,b"])
    assert result.exit_code == 2
    assert "error: --levels expects comma-separated numbers" in result.output


@pytest.mark.parametrize("command", [["stream"], ["rips"],
                                     ["levelset", "--epsilon", "1"]])
def test_a_non_utf8_file_is_an_error_not_a_traceback(tmp_path, command):
    path = tmp_path / "input.txt"
    path.write_bytes(b"F \xff\n")
    result = CliRunner().invoke(main, command + [str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("error: ")


def test_composite_field_char_is_rejected(tmp_path):
    path = tmp_path / "run.stream"
    path.write_text("F 1 0 0\nB 1\n")
    runner = CliRunner()
    result = runner.invoke(main, ["stream", str(path), "--field-char", "4"])
    assert result.exit_code == 2
    assert "not prime" in result.output


@pytest.mark.parametrize("flag", ["--validate", "--no-morse"])
def test_a_non_cycle_boundary_is_named_in_the_files_ids(tmp_path, flag):
    # cell 4 is a 2-cell whose boundary is the edge 3 alone
    path = tmp_path / "run.stream"
    path.write_text("F 1 0 0 2 0 0 3 1 2 1 1 2 1\nF 4 2 1 3 1\nB 4 3 1 2\n")
    result = CliRunner().invoke(main, ["stream", str(path), flag])
    assert result.exit_code == 2
    assert result.output == "error: boundary of cell 4 is not a cycle\n"


def test_oracle_check_reports_pass_counts():
    runner = CliRunner()
    result = runner.invoke(main, ["oracle-check", "--seed", "11", "--runs", "5",
                                  "--field-char", "5"])
    assert result.exit_code == 0
    assert "passed 5/5" in result.output


def test_oracle_check_refuses_a_prime_above_the_oracles_bound():
    result = CliRunner().invoke(main, ["oracle-check", "--field-char",
                                       "4294967291", "--runs", "60"])
    assert result.exit_code == 2
    assert result.output == ("error: field characteristic 4294967291 is above "
                             "3037000493, the oracle's bound for exact int64 "
                             "products\n")


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_oracle_check_needs_at_least_one_run(runs):
    result = CliRunner().invoke(main, ["oracle-check", "--runs", runs])
    assert result.exit_code == 2
    assert "error: --runs must be an integer in [1, inf)" in result.output
    assert "passed" not in result.output


def test_module_entry_point(tmp_path):
    # a subprocess does not see pytest's pythonpath setting, hence PYTHONPATH
    path = tmp_path / "run.stream"
    path.write_text("F 1 0 0\nB 1\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*flags):
        return subprocess.run(
            [sys.executable, "-m", "zzmorse.cli", "stream", str(path), *flags],
            env=env, capture_output=True, text=True, timeout=120)

    plain = run()
    assert (plain.returncode, plain.stdout, plain.stderr) == (0, "0 1 1\n", "")
    composite = run("--field-char", "4")
    assert composite.returncode == 2
    assert "not prime" in composite.stderr


def test_oracle_check_takes_no_validate_flag():
    # the oracle's replay already checks every boundary is a cycle
    result = CliRunner().invoke(main, ["oracle-check", "--validate"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "passed" not in result.output
