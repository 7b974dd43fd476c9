"""Audit machinery: matrix checks, Betti cross-checks, the shadow kernel,
and the one check that ``validate=True`` makes, on the input alone."""

import pytest

from audits import (BrokenInvariant, Shadow, audited, check_betti,
                    check_invariants, check_matrix, check_reads)
from conftest import make_rng
from test_flow_memo import branch_stream
from zzmorse.cells import Complex, apply_boundary
from zzmorse.generators import random_block_stream
from zzmorse.kernel import run_stream
from zzmorse.matrix import Column, HomologyMatrix
from zzmorse.morse import Matching
from zzmorse.stream import InsertCritical, MorseState, RemoveCritical


DIMS = {"a": 0, "b": 0, "ab": 1}


def tiny_matrix(p=2):
    """Two vertices joined by an edge: one F, one G, one H column."""
    bd = {"a": {}, "b": {}, "ab": {"a": 1, "b": p - 1}}
    m = HomologyMatrix(p, {"a": 0, "b": 1, "ab": 2})
    for cell in ("a", "b", "ab"):
        m.forward_insert(cell, dict(bd[cell]), 1)
    return m, (lambda cell: bd[cell])


# -- the audit accepts honest matrices ----------------------------------------------

def test_tiny_matrix_passes_the_audit():
    m, boundary = tiny_matrix()
    check_matrix(m, boundary, DIMS)
    labels = sorted(col.label for col in m.cols.values())
    assert labels == ["F", "G", "H"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("morse", [True, False])
def test_random_streams_pass_every_audit(seed, morse):
    rng = make_rng(470_000 + seed)
    p = rng.choice([2, 5])
    blocks = random_block_stream(rng, p=p)
    audit = audited(check_invariants, check_betti, Shadow(), check_reads)
    run_stream(blocks, p=p, morse=morse, validate=True, observer=audit)


# -- and rejects corrupted ones -----------------------------------------------------

def corrupt(mutate, match=None):
    m, boundary = tiny_matrix()
    mutate(m)
    with pytest.raises(BrokenInvariant, match=match):
        check_matrix(m, boundary, DIMS)


def test_rejects_a_stored_zero_coefficient():
    corrupt(lambda m: m.cols["ab"].chain.update({"ab": 0}))


def test_rejects_a_column_leading_off_its_slot():
    def swap(m):
        m.seq["a"], m.seq["ab"] = m.seq["ab"], m.seq["a"]
    corrupt(swap)


def test_rejects_rows_that_disagree_with_the_columns_or_the_complex():
    corrupt(lambda m: m.occ.update(z=set()),
            "columns and rows list different cells")
    corrupt(lambda m: m.seq.pop("b"), "row 'b' is not in the complex")

    def drop_row(m):
        del m.cols["a"], m.occ["a"]
    corrupt(drop_row, "boundary of 'ab' leaves the rows")


def test_rejects_a_column_off_the_rows_or_across_dimensions():
    corrupt(lambda m: m.cols["a"].chain.update(ghost=1),
            "column 'a' touches a dead row")
    corrupt(lambda m: m.cols["ab"].chain.update(a=1),
            "column 'ab' mixes dimensions")


def test_rejects_a_cycle_column_without_a_birth():
    def strip(m):
        for col in m.cols.values():
            if col.label == "F":
                col.birth = None
    corrupt(strip)


def test_rejects_a_broken_pairing():
    def unpartner(m):
        m.cols["ab"].partner = "ab"
    corrupt(unpartner)


def test_rejects_a_stale_occurrence_entry():
    corrupt(lambda m: m.occ["a"].add("ab") or m.cols["ab"].chain.pop("a", None))


def test_rejects_a_non_cycle_relabelled_as_cycle():
    def relabel(m):
        for slot, col in m.cols.items():
            if col.label == "H":
                m.cols[slot] = Column(col.chain, "F", birth=(9, 1))
    corrupt(relabel)


# -- the shadow kernel notices divergence -------------------------------------------

def attached(state, dim, bd):
    """Attach a fresh cell to the state's complex; return its insertion op."""
    cell = state.complex.fresh_id()
    state.complex.attach(cell, dim, bd)
    return InsertCritical(cell, dim, bd)


def test_shadow_counts_match_and_then_diverge():
    state, shadow = MorseState(Complex(2), Matching()), Shadow()
    live = HomologyMatrix(2, state.complex.seq)
    op = attached(state, 0, {})
    live.forward_insert(op.cell, {}, 1)
    shadow(state, live, op)

    with pytest.raises(BrokenInvariant, match="cycle counts diverge"):
        shadow(state, live, attached(state, 0, {}))


def test_shadow_names_a_cell_its_twin_kernel_refuses():
    state = MorseState(Complex(2), Matching())
    v = attached(state, 0, {}).cell
    edge = attached(state, 1, {v: 1})  # v never reached either twin
    empty = HomologyMatrix(2, {})
    with pytest.raises(BrokenInvariant,
                       match="shadow insert of 1: boundary cell 0 has no row"):
        Shadow()(state, empty, edge)
    with pytest.raises(BrokenInvariant,
                       match="shadow removal of 0: cell 0 has no row"):
        Shadow()(state, empty, RemoveCritical(v))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shadow_holds_every_live_cell_after_every_op(p):
    shadow = Shadow()

    def lockstep(state, matrix, op):
        assert set(shadow.twin.occ) == set(state.complex.dims)

    for seed in range(70):
        blocks = random_block_stream(make_rng(480_000 + seed), p=p)
        run_stream(blocks, p=p, observer=audited(shadow, lockstep))


def cook(state, matrix, op):
    """Relabel one reduced cycle column as a boundary."""
    for col in matrix.cols.values():
        if col.label == "F":
            col.label = "G"
            return


def test_run_stream_compares_the_shadow_after_every_op():
    blocks = [("F", [("v", 0, {})]), ("B", ["v"])]
    with pytest.raises(BrokenInvariant, match="cycle counts diverge"):
        run_stream(blocks, observer=audited(cook, Shadow()))


@pytest.mark.parametrize("morse", [True, False])
def test_block_audit_notices_a_phantom_critical_cell(morse):
    def add_phantom(state, matrix, op):
        state.matching.critical.add("phantom")

    blocks = [("F", [("v", 0, {})]), ("B", ["v"])]
    with pytest.raises(BrokenInvariant,
                       match="matrix rows diverge from the critical cells"):
        run_stream(blocks, morse=morse,
                   observer=audited(add_phantom, check_invariants))
    assert run_stream(blocks, morse=morse, validate=True,
                      observer=add_phantom)[0] == [(0, 1, 1)]


def add_phantom_column(state, matrix, op):
    matrix.cols["phantom"] = Column({"phantom": 1}, "F", (0, 1))


def test_validate_checks_the_input_and_nothing_else():
    # the flag changes neither the ops applied nor the output, and does not
    # audit the engine: a phantom cycle column, which no kernel op reaches
    # and check_invariants refuses, goes unnoticed
    streams = [(5, random_block_stream(make_rng(490_000 + seed), p=5))
               for seed in range(40)] + [(2, branch_stream(2))]
    for p, blocks in streams:
        runs = []
        for validate in (False, True):
            ops = []
            out = run_stream(blocks, p=p, validate=validate,
                             observer=lambda state, matrix, op: ops.append(op))
            runs.append((ops, out))
        assert runs[0] == runs[1]
        assert run_stream(blocks, p=p, validate=True,
                          observer=add_phantom_column) == out


def test_apply_boundary_is_linear():
    bd = {"x": {"u": 1, "v": 4}, "y": {"v": 1}}
    out = apply_boundary({"x": 1, "y": 1}, bd.get, 5)
    assert out == {"u": 1}
