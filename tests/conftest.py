"""Shared helpers: random atomic/block streams used for differential testing."""

import random
import re

from zzmorse.generators import (_random_cycle, blocks_to_stream,
                                random_block_stream)

random_block_ops = random_block_stream

# verdict details registered by tests/test_acceptance.py, printed at the end
ACCEPTANCE = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for status, word in (("passed", "PASS"), ("failed", "FAIL"),
                         ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)",
                          getattr(rep, "nodeid", ""))
            if m:
                key = int(m.group(1))
                if verdicts.get(key) != "FAIL":
                    verdicts[key] = word
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for k in sorted(verdicts):
        note = ACCEPTANCE.get(k)
        terminalreporter.write_line(
            "criterion %d: %s%s" % (k, verdicts[k],
                                    " (%s)" % note if note else ""))


def random_complex(rng, p=2, n=10, max_dim=3):
    """A random small complex grown by inserting random cycles as boundaries."""
    from zzmorse.cells import Complex

    cx = Complex(p=p, validate=True)
    for _ in range(n):
        dim = rng.randint(0, max_dim)
        state = {c: (cx.dims[c], cx.facets[c]) for c in cx.dims}
        bnd = {} if dim == 0 else _random_cycle(state, dim - 1, p, rng)
        if bnd is None:
            dim, bnd = 0, {}
        cx.insert_cell(dim, bnd)
    return cx


def grow_records(rng, cx, k, max_dim=3):
    """Records for k new cells stacked on cx, possibly referencing each other."""
    state = {c: (cx.dims[c], cx.facets[c]) for c in cx.dims}
    records = {}
    for _ in range(k):
        dim = rng.randint(0, max_dim)
        bnd = {} if dim == 0 else _random_cycle(state, dim - 1, cx.p, rng)
        if bnd is None:
            dim, bnd = 0, {}
        cid = cx.fresh_id()
        state[cid] = (dim, bnd)
        records[cid] = (dim, bnd)
    return records


def cell_records(cx, cells=None):
    """``{cell: (dim, boundary)}`` for the given cells of cx (default: all)."""
    if cells is None:
        cells = cx.dims
    return {c: (cx.dims[c], cx.facets[c]) for c in cells}


def make_rng(seed):
    return random.Random(seed)
