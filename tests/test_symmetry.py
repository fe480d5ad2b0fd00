"""The exact symmetries of the rank-penalized Hankel and block Hankel
problems.

Each transformation below maps the data F (and, for a scaling, the
penalty level sigma0) to a problem whose solution is the same
transformation of the original one's X_star:

* conjugating F, and scaling F and sigma0 by a power of two, commute with
  every rounding, so X_star, Lambda_star and the counts of the run come
  out bit for bit (the duals scale by the square of the factor);
* reversing the signal (J F J, the same shape; for block Hankel data it
  reverses the order of the channels too), a phase rotation e^{i theta} F
  and the transposed label map on the same vector agree up to rounding.

The passes of the truncated SVD follow rounding, so those three keep
X_star and the iteration count but not always ``full_svds`` and
``passes``: at seed 0 of ``four_tones`` (96 and 200 samples, 150 rows, the
three variants), reversal or phase moved ``passes`` in 7 of 12 runs, and
transposition in 5 of 6.

The residual stop ||X - P(X)|| < stop_tol compares in the data's units,
so the stop is the one thing that does not scale; the runs compared here
switch it off, except in the test that states it.
"""

import functools

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from doubles import block_hankel_labels, four_tones
from slra import solvers
from slra.cli import main
from slra.envelope import RankObjective
from slra.signals import load_signal_csv, save_signal_csv, sigma0_heuristic, signal_to_hankel
from slra.solvers import SolverConfig, run
from slra.subspace import LabelSubspace

#: (samples, seed, channels) of the examples: four damped tones plus
#: noise, on 49x48, 101x100 and 49x48 complex Hankel matrices, and with
#: channels that share the tones' poles, on 33x96 and 49x96 block Hankel
#: matrices [H_1 ... H_C]; in the fallback examples the smallest kept
#: singular value sits near the cutoff, so truncated attempts fall back to
#: the full SVD
FALLBACK_EXAMPLES = ((96, 5, None), (64, 5, 3))
EXAMPLES = ((96, 1, None), (200, 5, None), *FALLBACK_EXAMPLES, (96, 1, 2))

#: rows of each run, with the residual stop off
ROWS = 60
NO_STOP = 0.0

#: relative agreement of the transformations that round differently
REL_TOL = 1e-12


def _solve(F, sub, sigma0, variant, stop_tol=NO_STOP, rows=ROWS):
    alpha = 0.0 if variant == solvers.DA else 0.1
    return run(RankObjective(F, sigma0), sub,
               SolverConfig(variant, alpha, max_iters=rows, stop_tol=stop_tol))


@functools.cache
def _example(n, seed, channels):
    """(v, F, sub, sigma0): the generating vector, its Hankel or block
    Hankel matrix and subspace, and the penalty level from the spectral
    gap at 4."""
    v = four_tones(n, seed, channels).ravel()
    if channels is None:
        F, sub = signal_to_hankel(v)
    else:
        sub = LabelSubspace(block_hankel_labels(n // 2 + 1, (n + 1) // 2, channels))
        F = sub.from_vector(v)
    return v, F, sub, sigma0_heuristic(F, 4)


@functools.cache
def _base(n, seed, channels, variant):
    _, F, sub, sigma0 = _example(n, seed, channels)
    return _solve(F, sub, sigma0, variant)


def _counts(res):
    return res.n_iters, res.full_svds, res.passes


def _close(a, b):
    return np.linalg.norm(a - b) <= REL_TOL * np.linalg.norm(b)


CASES = pytest.mark.parametrize("example, variant", [
    (example, variant) for example in EXAMPLES for variant in solvers.VARIANTS])


@CASES
def test_conjugation_is_bit_exact(example, variant):
    _, F, sub, sigma0 = _example(*example)
    base = _base(*example, variant)
    res = _solve(F.conj(), sub, sigma0, variant)
    assert_array_equal(res.X_star, base.X_star.conj())
    assert_array_equal(res.Lambda_star, base.Lambda_star.conj())
    assert_array_equal(res.trace.dual, base.trace.dual)
    assert _counts(res) == _counts(base)


@CASES
@pytest.mark.parametrize("power", [-1, 3])
def test_scaling_by_a_power_of_two_is_bit_exact(example, variant, power):
    _, F, sub, sigma0 = _example(*example)
    base = _base(*example, variant)
    c = 2.0**power
    res = _solve(c * F, sub, c * sigma0, variant)
    assert_array_equal(res.X_star, c * base.X_star)
    assert_array_equal(res.Lambda_star, c * base.Lambda_star)
    assert_array_equal(res.trace.dual, c * c * base.trace.dual)
    assert _counts(res) == _counts(base)


@CASES
def test_reversal_and_phase_agree_up_to_rounding(example, variant):
    _, F, sub, sigma0 = _example(*example)
    base = _base(*example, variant)
    # the reversed signal generates J F J on the same subspace
    reversed_ = _solve(np.ascontiguousarray(F[::-1, ::-1]), sub, sigma0, variant)
    assert _close(reversed_.X_star[::-1, ::-1], base.X_star)
    phase = np.exp(0.7j)
    rotated = _solve(phase * F, sub, sigma0, variant)
    assert _close(rotated.X_star, phase * base.X_star)
    assert reversed_.n_iters == rotated.n_iters == base.n_iters


@CASES
def test_transposed_shape_agrees_up_to_rounding(example, variant):
    v, _, sub, sigma0 = _example(*example)
    base = _base(*example, variant)
    transposed = LabelSubspace(sub._idx.T)
    res = _solve(transposed.from_vector(v), transposed, sigma0, variant)
    assert _close(res.X_star.T, base.X_star)
    assert res.n_iters == base.n_iters


@pytest.mark.parametrize("variant", solvers.VARIANTS)
def test_the_fallback_example_takes_full_svds_after_row_0(variant):
    # else the symmetries above would no longer cover rows that fall back
    for example in FALLBACK_EXAMPLES:
        assert _base(*example, variant).full_svds > 1


def test_the_residual_stop_is_absolute():
    # data scaled by 4 stops where the base run's residual falls below a
    # quarter of stop_tol, so later than the base run itself stops
    _, F, sub, sigma0 = _example(*EXAMPLES[0])
    stop_tol = 0.05
    scaled = _solve(4.0 * F, sub, 4.0 * sigma0, solvers.MOD_ADA, stop_tol, rows=400)
    base = _solve(F, sub, sigma0, solvers.MOD_ADA, stop_tol / 4.0, rows=400)
    assert scaled.converged and base.converged
    assert _counts(scaled) == _counts(base)
    assert_array_equal(scaled.X_star, 4.0 * base.X_star)
    unscaled = _solve(F, sub, sigma0, solvers.MOD_ADA, stop_tol, rows=400)
    assert unscaled.converged and unscaled.n_iters < scaled.n_iters


@pytest.mark.parametrize("variant", solvers.VARIANTS)
def test_solve_of_a_signal_and_of_its_transposed_matrix_agree(variant, tmp_path, monkeypatch):
    # 30 samples make a 16x15 matrix; the .npy holds its 15x16 transpose,
    # which the solve takes as-is, on the Hankel subspace of that shape
    f = four_tones(30, 2)
    F, _ = signal_to_hankel(f)
    save_signal_csv(tmp_path / "signal.csv", f)
    np.save(tmp_path / "matrix.npy", F.T)
    monkeypatch.chdir(tmp_path)
    vectors = []
    for name in ("signal.csv", "matrix.npy"):
        out = f"out_{name}"
        assert main(["--iters", "60", "--sigma0", "0.5", "--out", out, "solve", "--input", name,
                     "--variant", variant, "--stop-tol", "0"]) == 0
        vectors.append(load_signal_csv(tmp_path / out / "x_star_vector.csv")[1])
    assert _close(vectors[1], vectors[0])
