"""End-to-end release gates.

Eight criteria, one test each, ordered; every test registers a one-line
verdict that conftest prints after the run (see pytest_terminal_summary).
The two large presets — the 150-point circle and the 17^3 synthetic image —
are computed once in module fixtures and shared by the tests that grade
them from different angles.
"""

import time

import pytest
from click.testing import CliRunner

from audits import (Shadow, audited, check_betti, check_invariants, check_reads,
                    emit_image, emit_stream)
from conftest import ACCEPTANCE, cell_records, make_rng, random_complex
from test_morse import brute_boundary
from test_stream import update_formula
from zzmorse.cli import format_diagram, main
from zzmorse.generators import (
    circle_points,
    even_levels,
    fourier_image,
    levelset_stream,
    oscillating_rips_stream,
    random_block_stream,
)
from zzmorse.kernel import run_stream
from zzmorse.morse import Matching, coreduce
from zzmorse.oracle import block_diagram
from zzmorse.stream import MorseState, Split, apply_atomic


def random_streams():
    """The 500 seeded filtrations graded by criteria 1, 4 and 5."""
    out = []
    for seed in range(500):
        p = 2 if seed % 2 == 0 else 5
        out.append((p, random_block_stream(
            seed, p=p, max_live=12, max_arrows=30, max_dim=3)))
    return out


def preset_runs(blocks):
    """Both pipelines on a preset; the Morse run carries the unreduced twin
    kernel and the memo-read audit as observers."""
    return {True: run_stream(blocks, p=2, validate=True,
                             observer=audited(Shadow(), check_reads)),
            False: run_stream(blocks, p=2, morse=False, validate=True)}


@pytest.fixture(scope="module")
def circle_run():
    t0 = time.perf_counter()
    points = circle_points(150, seed=7)
    blocks, scales = oscillating_rips_stream(points, 4.0, 6.0, max_dim=2)
    runs = preset_runs(blocks)
    return {"points": points, "blocks": blocks, "scales": scales, "runs": runs,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def image_run():
    t0 = time.perf_counter()
    image = fourier_image((17, 17, 17), seed=11, terms=3)
    levels = even_levels(image, 0.2)
    blocks, scales = levelset_stream(image, levels)
    runs = preset_runs(blocks)
    return {"image": image, "blocks": blocks, "scales": scales, "runs": runs,
            "elapsed": time.perf_counter() - t0}


# -- 1: reduced pipeline == unreduced pipeline == oracle ----------------------------

def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    for p, blocks in random_streams():
        reduced, _ = run_stream(blocks, p=p)
        plain, _ = run_stream(blocks, p=p, morse=False)
        decomposed = block_diagram(blocks, p=p)
        assert sorted(reduced) == sorted(plain) == sorted(decomposed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ACCEPTANCE[1] = ("500/500 random filtrations: reduced == unreduced == "
                     "interval decomposition, %.1fs" % elapsed)


# -- 2: identical diagrams with and without reduction, at scale ---------------------

def test_criterion_2_reduction_invisible_at_scale(circle_run, image_run):
    for run in (circle_run, image_run):
        with_reduction = format_diagram(run["runs"][True][0], run["scales"])
        without = format_diagram(run["runs"][False][0], run["scales"])
        assert with_reduction.encode() == without.encode()
        assert run["elapsed"] < 120.0
    ACCEPTANCE[2] = ("byte-identical diagrams both ways: circle %.1fs, "
                     "image %.1fs" % (circle_run["elapsed"], image_run["elapsed"]))


# -- 3: the pair-split boundary formula against literal path sums -------------------

def split_pair(m, tau):
    """Copy of a matching with tau's pair released to critical."""
    out = Matching()
    for c in m.critical:
        out.critical.add(c)
    for t, s in m.pair_up.items():
        if t == tau:
            out.critical.add(t)
            out.critical.add(s)
        else:
            out.add_pair(t, s)
    return out


@pytest.mark.parametrize("p", [2, 5])
def test_criterion_3_boundary_update_formula(p):
    events = 0
    attempts = 0
    while events < 200:
        attempts += 1
        assert attempts < 2000
        rng = make_rng(40_000 + 1000 * p + attempts)
        cx = random_complex(rng, p=p, n=rng.randint(8, 20))
        m = coreduce(cell_records(cx))
        pairs = [(t, s) for t, s in m.pair_up.items() if not cx.cofacets[s]]
        if not pairs:
            continue
        tau, sigma = pairs[rng.randrange(len(pairs))]
        sdim = cx.dims[sigma]
        dims = dict(cx.dims)

        # formula operands, derived from path enumeration and raw incidences
        released = split_pair(m, tau)
        before = {nu: brute_boundary(cx, m, nu) for nu in m.critical}
        correction = {nu: brute_boundary(cx, released, nu).get(tau, 0)
                      for nu in m.critical if dims[nu] == sdim}
        sigma_bnd = brute_boundary(cx, released, sigma)
        scale = cx.facets[sigma][tau] % p

        state = MorseState(cx, m)
        _, _, sigma_boundary, tau_cofacets = apply_atomic(state,
                                                          Split(tau, sigma))
        cx.remove_cell(sigma)  # then the king leaves as a critical cell
        m.critical.discard(sigma)
        # the engine's operands agree with the enumeration-derived ones
        assert sigma_boundary == sigma_bnd
        assert sigma_boundary.get(tau, 0) % p == scale
        for nu, corr in correction.items():
            assert tau_cofacets.get(nu, 0) % p == corr

        for nu, old in before.items():
            if dims[nu] == sdim:
                expected = update_formula(old, correction[nu], scale, sigma_bnd, p)
            else:
                expected = old
            assert brute_boundary(cx, m, nu) == expected
        events += 1
    ACCEPTANCE[3] = ACCEPTANCE.get(3, "") + ("[p=%d: 200 events] " % p)


# -- 4: cycle counts of the reduced complex track the full complex ------------------

def test_criterion_4_betti_tracking(circle_run, image_run):
    # both presets already ran with Shadow as observer: a lockstep unreduced
    # twin kernel re-derived the cycle counts after every atomic operation
    assert circle_run["runs"][True] and image_run["runs"][True]
    counted = [0]

    def recount(state, matrix, op):
        counted[0] += 1
        check_betti(state, matrix, op)

    for p, blocks in random_streams():
        run_stream(blocks, p=p, validate=True, observer=recount)
    ACCEPTANCE[4] = ("dense rank recount at %d atomic ops across 500 streams; "
                     "lockstep twin kernel on both presets" % counted[0])


# -- 5: structural audit of the homology matrix after every kernel op ---------------

def test_criterion_5_matrix_invariants():
    for p, blocks in random_streams():
        run_stream(blocks, p=p, validate=True, observer=check_invariants)
        run_stream(blocks, p=p, morse=False, validate=True,
                   observer=check_invariants)
    ACCEPTANCE[5] = ("triangularity, cycle/boundary/pairing conditions audited "
                     "after every op, 500 streams, both pipelines")


# -- 6: the reduction actually reduces ----------------------------------------------

def test_criterion_6_reduction_metrics(circle_run, image_run):
    notes = []
    for name, run in (("circle", circle_run), ("image", image_run)):
        metrics = run["runs"][True][1]
        assert metrics.reduced_ops < metrics.raw_ops
        assert metrics.max_critical < metrics.max_cells
        notes.append("%s %.1fx shorter, %.1fx smaller"
                     % (name, metrics.raw_ops / metrics.reduced_ops,
                        metrics.max_cells / metrics.max_critical))
    ACCEPTANCE[6] = "; ".join(notes)


# -- 7: the circle's topology survives the oscillation ------------------------------

def test_criterion_7_circle_topology(circle_run):
    total = len(circle_run["blocks"])
    spans = {0: [], 1: []}
    for dim, birth, death in circle_run["runs"][True][0]:
        if dim in spans:
            spans[dim].append((death - birth + 1) / total)
    long_loops = [s for s in spans[1] if s >= 0.80]
    long_components = [s for s in spans[0] if s >= 0.95]
    assert len(long_loops) == 1
    assert len(long_components) == 1
    ACCEPTANCE[7] = ("one loop spans %.0f%% of the run, one component %.0f%%"
                     % (100 * long_loops[0], 100 * long_components[0]))


# -- 8: byte-identical reruns --------------------------------------------------------

def rerun_twice(args, tmp_path, tag):
    outputs = []
    for k in (0, 1):
        out = tmp_path / ("%s_%d.dgm" % (tag, k))
        met = tmp_path / ("%s_%d.met" % (tag, k))
        result = CliRunner().invoke(
            main, args + ["--out", str(out), "--metrics-out", str(met)])
        assert result.exit_code == 0
        outputs.append(out.read_bytes() + met.read_bytes())
    assert outputs[0] == outputs[1]


def test_criterion_8_deterministic_reruns(tmp_path, circle_run, image_run):
    pts = tmp_path / "circle.pts"
    pts.write_text("".join("%.17g %.17g\n" % (x, y)
                           for x, y in circle_run["points"]))
    rerun_twice(["rips", str(pts), "--mu", "4.0", "--nu", "6.0",
                 "--max-dim", "2"], tmp_path, "rips")

    img = tmp_path / "field.img"
    img.write_text(emit_image(image_run["image"]))
    rerun_twice(["levelset", str(img), "--epsilon", "0.2", "--seed", "11",
                 "--noise", "0.05"], tmp_path, "levelset")

    stream = tmp_path / "run.stream"
    stream.write_text(emit_stream(random_block_stream(3, p=5)))
    rerun_twice(["stream", str(stream), "--field-char", "5"],
                tmp_path, "stream")
    ACCEPTANCE[8] = "double runs byte-identical (diagram + metrics), all modes"
