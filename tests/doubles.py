"""Test doubles of the solver protocol: the scalar toy |x^2 - 1| with the
constraint x = 0, the standard example of dual ascent oscillating between
primal minimizers, and the tests' reference evaluators.

``ToyObjective`` models the toy on 1x1 matrices, so that
:func:`slra.solvers.run` treats it like any other objective, and
``ZeroSubspace`` is the trivial subspace {0}, whose complement is the whole
space.  ``never_truncate`` stubs out the truncated SVD, so that a run
prices every row by the full SVD, and ``assert_same_run`` compares a run
with that reference path.  ``assert_primal_bound_holds`` checks the
certified primal bounds of a ``doubling`` trace against the exact primal
values of the same run under ``all``.
``primal_value`` prices the paper's non-convex objective, which no solver
evaluates, ``four_tones`` draws noisy four-tone test signals, and
``toeplitz_labels`` and ``block_hankel_labels`` give the label maps of two
structures besides Hankel, which the program does not build.  The
module name does not match ``test_*.py``: the tests import it, pytest does
not collect it.
"""

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

from slra import envelope
from slra.envelope import PrimalUpdate, toy_tilted_minimizers
from slra.matops import check_shape, frobenius_norm, numerical_rank
from slra.subspace import HankelSubspace


def primal_value(obj, x, rel_tol: float = 1e-9) -> float:
    """sigma0^2 * rank(X) + ||X - F||^2 of the ``RankObjective`` ``obj`` at
    numerical-rank tolerance ``rel_tol``."""
    x = check_shape(x, obj.shape)
    rank = numerical_rank(np.linalg.svd(x, compute_uv=False), rel_tol)
    return obj.sigma0**2 * rank + frobenius_norm(x - obj.F) ** 2


def four_tones(n, seed, channels=None):
    """n samples of four damped complex tones plus complex noise; with a
    count of ``channels``, one row of n samples per channel, whose tones
    share their poles but not their amplitudes or noise."""
    rng = np.random.default_rng(seed)
    each = () if channels is None else (channels,)
    zetas = -rng.uniform(0.0, 0.01, 4) + 1j * rng.uniform(0.1, 3.0, 4)
    amps = np.exp(2j * np.pi * rng.uniform(size=each + (4,)))
    f = (np.exp(np.multiply.outer(np.arange(n), zetas)) @ amps.T).T
    return f + 0.1 * (rng.standard_normal(each + (n,)) + 1j * rng.standard_normal(each + (n,)))


def toeplitz_labels(rows, cols):
    """Label map of the Toeplitz matrices, T[i, j] = v[i - j + cols - 1]."""
    return np.subtract.outer(np.arange(rows), np.arange(cols)) + cols - 1


def block_hankel_labels(rows, cols, channels):
    """Label map of the block Hankel matrices [H_1 ... H_C], one rows x cols
    Hankel block per channel: c (rows + cols - 1) + i + j on block c."""
    hankel = np.add.outer(np.arange(rows), np.arange(cols))
    return np.hstack([c * (rows + cols - 1) + hankel for c in range(channels)])


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

    def primal_bound(self, upd, px, resid, alpha=0.0):
        return self.feasible_value(px)

    def update(self, lam, alpha=0.0, warm=None, dlam=None) -> PrimalUpdate:
        if alpha != 0:
            raise ValueError("the toy objective runs plain dual ascent only")
        lam_v = self._scalar(lam)
        # non-convex argmin; ties broken towards +1 for determinism
        x = max(toy_tilted_minimizers(lam_v))
        return PrimalUpdate(
            x=np.array([[x]]),
            fs=np.array([abs(x)]),
            x_norm_sq=x * x,
            dual_da=-toy_conjugate(-lam_v),
            degenerate=False,
        )


class ZeroSubspace(HankelSubspace):
    """The trivial subspace {0}; its complement is the whole space."""

    def project(self, x):
        return np.zeros_like(check_shape(x, self.shape))


def never_truncate(monkeypatch):
    """Every truncated attempt fails without a pass: every row takes the
    full SVD."""
    monkeypatch.setattr(envelope, "_truncated_svd", lambda *a: (0, None))


def assert_same_run(fast, full):
    """``fast`` matches the full-SVD run ``full``: the same iterations and
    best rows, duals and ||Lambda|| within 1e-9 relative, X_star within
    1e-12."""
    assert fast.n_iters == full.n_iters
    assert_array_equal(fast.trace.best_n, full.trace.best_n)
    assert_allclose(fast.trace.dual, full.trace.dual, rtol=1e-9)
    assert_allclose(fast.trace.lambda_norm, full.trace.lambda_norm, rtol=1e-9)
    assert np.linalg.norm(fast.X_star - full.X_star) <= 1e-12 * np.linalg.norm(full.X_star)


def assert_primal_bound_holds(bounded, priced):
    """The certified bound of every row of ``bounded``, the trace of a
    ``doubling`` run, lies above the exact primal value that ``priced``,
    the trace of the same run under ``all``, holds on that row, up to
    rounding, and row 0 (X^0 = 0) takes the exact value."""
    p, b = priced.primal, bounded.primal_bound
    assert len(p) == len(b)
    assert np.all(np.isfinite(p)) and np.all(np.isfinite(b))
    assert np.all(b >= p - 1e-12 * np.maximum(1.0, np.abs(p)))
    assert b[0] == p[0]
