"""The unreduced shadow kernel that ``run_stream(validate=True)`` runs.

``ShadowComplex`` replays each raw cell in an unreduced twin kernel, whose
cycle counts must match the reduced matrix's after every atomic op.  The
heavier audits that tests pass to ``run_stream`` as observers, the full
structural check of the matrix and the dense Betti recount, live in
``tests/audits.py``.
"""

from .cells import Complex
from .errors import BrokenInvariant, KernelError
from .matrix import HomologyMatrix


class ShadowComplex(Complex):
    """A complex whose ``attach`` and ``remove_cell`` replay the cell in
    ``shadow``, an unreduced ``HomologyMatrix`` with one row per raw cell.

    ``compare`` asserts that its cycle counts match the reduced matrix's.
    Every op is given block 0, since only counts are read.
    """

    def __init__(self, p=2):
        super().__init__(p)
        self.shadow = HomologyMatrix(self.p, self.seq, self.dims)

    def attach(self, cell, dim, bd):
        super().attach(cell, dim, bd)
        try:
            self.shadow.forward_insert(cell, dict(bd), 0)
        except KernelError as exc:
            raise BrokenInvariant("shadow insert of %r: %s" % (cell, exc)) from None

    def remove_cell(self, cell):
        super().remove_cell(cell)
        try:
            self.shadow.backward_remove(cell, 0)
        except KernelError as exc:
            raise BrokenInvariant("shadow removal of %r: %s" % (cell, exc)) from None

    def compare(self, reduced):
        if self.shadow.f_counts != reduced.f_counts:
            raise BrokenInvariant("cycle counts diverge: full %r, reduced %r"
                                  % (self.shadow.f_counts, reduced.f_counts))
