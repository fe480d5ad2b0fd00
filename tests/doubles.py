"""Test doubles of the solver protocol: the scalar toy |x^2 - 1| with the
constraint x = 0, the standard example of dual ascent oscillating between
primal minimizers.

``ToyObjective`` models the toy on 1x1 matrices, so that
:func:`slra.solvers.run` treats it like any other objective, and
``ZeroSubspace`` is the trivial subspace {0}, whose complement is the whole
space.  The module name does not match ``test_*.py``: the tests import it,
pytest does not collect it.
"""

import numpy as np

from slra.envelope import PrimalUpdate, toy_tilted_minimizers
from slra.subspace import SubspaceOp


def toy_conjugate(lam: float) -> float:
    """Conjugate of |x^2 - 1| on the reals: |lam| for |lam| <= 2,
    1 + lam^2 / 4 beyond."""
    a = abs(float(lam))
    return a if a <= 2.0 else 1.0 + a * a / 4.0


class ToyObjective:
    """|x^2 - 1| on the reals as 1x1 matrices, for plain dual ascent
    (``da``, alpha = 0) only."""

    shape = (1, 1)

    @staticmethod
    def _scalar(lam):
        lam = np.asarray(lam)
        if lam.shape != (1, 1):
            raise ValueError("toy objective works on 1x1 matrices")
        return float(np.real(lam[0, 0]))

    def feasible_value(self, x, alpha=0.0):
        v = self._scalar(x)
        return max(0.0, v * v - 1.0)

    def update(self, lam, alpha=0.0, warm=None, dlam=None) -> PrimalUpdate:
        if alpha != 0:
            raise ValueError("the toy objective runs plain dual ascent only")
        lam_v = self._scalar(lam)
        # non-convex argmin; ties broken towards +1 for determinism
        x = max(toy_tilted_minimizers(lam_v))
        return PrimalUpdate(
            x=np.array([[x]]),
            dual_da=-toy_conjugate(-lam_v),
            envelope=lambda: max(0.0, x * x - 1.0),
            x_norm_sq=x * x,
            degenerate=False,
        )


class ZeroSubspace(SubspaceOp):
    """The trivial subspace {0}; its complement is the whole space."""

    def project(self, x):
        return np.zeros_like(self._check_shape(x))
