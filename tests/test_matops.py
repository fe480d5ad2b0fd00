import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from slra.envelope import RankObjective
from slra.matops import (
    check_shape,
    f_alpha,
    f_hard,
    frobenius_norm,
    numerical_rank,
    qr_q,
)
from slra.subspace import HankelSubspace


def update_at_zero(a, sigma0, alpha=0.0):
    """The singular value functional calculus of the primal step's map,
    f_hard at alpha = 0 and f_alpha(., sigma0, alpha) above, applied to
    ``a``, as the primal update at Lambda = 0 computes it."""
    return RankObjective(a, sigma0).update(np.zeros(np.shape(a)), alpha).x


def scalar_threshold_objective(sigma, phi, sigma0, alpha):
    """Grid-search target: the per-singular-value objective whose minimizer
    the threshold map must produce."""
    return (
        sigma0**2
        - max(sigma0 - sigma, 0.0) ** 2
        + (sigma - phi) ** 2
        + 0.5 * alpha * sigma**2
    )


def test_every_matrix_argument_is_checked_with_one_message():
    obj, sub = RankObjective(np.ones((3, 2)), 1.0), HankelSubspace(3, 2)
    message = re.escape("expected shape (3, 2), got (2, 3)")
    for check in (obj.update, obj.feasible_value, obj.dual_value_da, sub.project,
                  sub.to_vector, lambda x: check_shape(x, (3, 2))):
        with pytest.raises(ValueError, match=message):
            check(np.ones((2, 3)))
    with pytest.raises(ValueError, match=re.escape("expected shape (4,), got (2, 2)")):
        sub.from_vector(np.ones((2, 2)))
    assert check_shape([[1, 2]], (1, 2)).shape == (1, 2)


def test_frobenius_norm_matches_numpy_on_real_and_complex_input():
    rng = np.random.default_rng(7)
    for shape in ((48, 47), (129, 129), (1, 9), (5,), (3, 4, 2)):
        for a in (rng.standard_normal(shape),
                  rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                  1e150 * rng.standard_normal(shape), 1e-150 * rng.standard_normal(shape)):
            ref = np.linalg.norm(a.ravel())
            assert isinstance(frobenius_norm(a), float)
            assert abs(frobenius_norm(a) - ref) <= 4 * np.finfo(float).eps * ref
    assert frobenius_norm(np.zeros((3, 2), dtype=complex)) == 0.0
    assert frobenius_norm(np.array([[3.0, 4j]])) == 5.0


def test_qr_q_is_numpys_q_bit_for_bit():
    # qr_q calls numpy's private QR gufuncs; an upgrade that changes them
    # fails here rather than moving the truncated SVD's iterates
    rng = np.random.default_rng(3)
    for m, n in ((30, 6), (48, 6), (65, 6), (129, 6), (101, 16)):
        real = rng.standard_normal((m, n))
        for y in (real, real + 1j * rng.standard_normal((m, n))):
            blocks = [y]
            for bad in (np.nan, np.inf, -np.inf):
                one = y.copy()
                one[m // 2, n // 3] = bad
                blocks += [one, np.full_like(y, bad)]
            for block in blocks:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    ref = np.linalg.qr(block)[0]
                    q = qr_q(block.copy())
                assert q.dtype == ref.dtype and q.shape == ref.shape == (m, n)
                assert q.tobytes() == ref.tobytes()


def test_qr_q_overwrites_its_argument_and_takes_only_float64_or_complex128():
    y = np.random.default_rng(4).standard_normal((9, 3))
    z = y.copy()
    assert qr_q(z).tobytes() == np.linalg.qr(y)[0].tobytes()
    assert not np.array_equal(z, y)  # geqrf's reflectors
    for dtype in (np.float32, np.complex64, np.int64):
        with pytest.raises(TypeError):
            qr_q(y.astype(dtype))


def test_f_hard_branches():
    assert f_hard(0.999, 1.0) == 0.0
    assert f_hard(1.0, 1.0) == 1.0  # tie keeps the value
    assert f_hard(2.0, 1.0) == 2.0


def test_f_alpha_below_threshold():
    assert f_alpha(0.0, 1.0, 0.2) == 0.0
    assert f_alpha(0.5, 1.0, 0.2) == 0.0


def test_f_alpha_knee_continuity():
    # both middle and upper branch evaluate to sigma0 at the knee
    sigma0, alpha = 1.0, 0.2
    knee = (1 + alpha / 2) * sigma0
    assert f_alpha(knee, sigma0, alpha) == pytest.approx(sigma0)
    assert f_alpha(knee - 1e-12, sigma0, alpha) == pytest.approx(sigma0, abs=1e-10)


def test_f_alpha_shape_over_grid():
    # zero below sigma0, ramp, then slope 1/(1 + alpha/2)
    for alpha in (0.2, 0.4, 0.6, 0.8, 1.0):
        x = np.linspace(0, 3, 301)
        y = f_alpha(x, 1.0, alpha)
        assert np.all(y[x < 1.0] == 0.0)
        hi = x >= 1 + alpha / 2
        assert_allclose(y[hi], x[hi] / (1 + alpha / 2))
        mid = (x >= 1.0) & ~hi
        assert_allclose(y[mid], (2 / alpha) * (x[mid] - 1.0))


def _masked_f_hard(x, sigma0):
    """The hard threshold as an explicit mask, the reference of the map."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xv)
    keep = xv >= sigma0
    out[keep] = xv[keep]
    return float(out[0]) if np.ndim(x) == 0 else out


def _masked_f_alpha(x, sigma0, alpha):
    """The three branches of f_alpha as masked assignments, each branch's
    formula evaluated on its own entries only."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    knee = (1.0 + alpha / 2.0) * sigma0
    out = np.zeros_like(xv)
    ramp = (xv >= sigma0) & (xv < knee)
    out[ramp] = (2.0 / alpha) * (xv[ramp] - sigma0)
    top = xv >= knee
    out[top] = xv[top] / (1.0 + alpha / 2.0)
    return float(out[0]) if np.ndim(x) == 0 else out


def _threshold_inputs(sigma0, alpha):
    """Random vectors spanning all branches, plus the ties at sigma0 and
    at the knee and their neighbouring floats."""
    rng = np.random.default_rng(11)
    knee = (1.0 + alpha / 2.0) * sigma0
    ties = [sigma0, knee]
    ties += [np.nextafter(t, d) for t in ties for d in (0.0, np.inf)]
    yield np.array(ties + [0.0, np.inf])
    for size in (1, 5, 47, 129):
        yield rng.uniform(0.0, 3.0 * knee, size)
    yield from ties


@pytest.mark.parametrize("sigma0, alpha", [
    (1.0, 0.2), (0.37, 1.3), (2.5, 1e-9), (1.0, 2.2e-308), (3.0, 0.0),
])
def test_threshold_maps_equal_the_masked_formulas_bit_for_bit(sigma0, alpha):
    with np.errstate(all="raise"):
        for x in _threshold_inputs(sigma0, alpha):
            got_hard = f_hard(x, sigma0)
            if np.ndim(x) == 0:
                assert type(got_hard) is float
            assert np.array_equal(got_hard, _masked_f_hard(x, sigma0))
            if alpha == 0:  # the augmented map only: plain dual ascent takes f_hard
                with pytest.raises(ValueError, match="alpha must be positive"):
                    f_alpha(x, sigma0, alpha)
                continue
            got = f_alpha(x, sigma0, alpha)
            if np.ndim(x) == 0:
                assert type(got) is float
            assert np.array_equal(got, _masked_f_alpha(x, sigma0, alpha))


def test_f_alpha_rejects_negative():
    with pytest.raises(ValueError):
        f_alpha(-0.1, 1.0, 0.2)
    for alpha in (-0.2, 0.0):
        with pytest.raises(ValueError, match="alpha must be positive"):
            f_alpha(0.1, 1.0, alpha)


@given(
    x=st.floats(0.0, 50.0),
    sigma0=st.floats(0.01, 10.0),
    alpha=st.floats(0.0, 2.0, exclude_min=True),
)
def test_f_alpha_bounded_by_identity(x, sigma0, alpha):
    # f_hard is the primal step at alpha = 0
    for y in (f_alpha(x, sigma0, alpha), f_hard(x, sigma0)):
        assert 0.0 <= y <= x + 1e-12


@given(
    sigma0=st.floats(0.1, 5.0),
    alpha=st.floats(0.0, 2.0, exclude_min=True),
    data=st.data(),
)
def test_f_alpha_monotone(sigma0, alpha, data):
    x1 = data.draw(st.floats(0.0, 20.0))
    x2 = data.draw(st.floats(0.0, 20.0))
    lo, hi = sorted((x1, x2))
    assert f_alpha(lo, sigma0, alpha) <= f_alpha(hi, sigma0, alpha) + 1e-12
    assert f_hard(lo, sigma0) <= f_hard(hi, sigma0)  # the primal step at alpha = 0


def test_f_alpha_converges_to_hard_threshold():
    sigma0 = 1.3
    for x in (0.0, 0.7, 1.2999, 1.3001, 2.0, 5.0):
        vals = [f_alpha(x, sigma0, a) for a in (1e-3, 1e-5, 1e-7)]
        target = f_hard(x, sigma0)
        if not sigma0 <= x < sigma0 * (1 + 5e-4):  # shrinking ramp excluded
            assert vals[-1] == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 1.0])
def test_f_alpha_minimizes_scalar_objective(alpha):
    # oracle: dense grid search of the per-singular-value objective; at
    # alpha = 0 the primal step is f_hard
    sigma0 = 1.0
    grid = np.linspace(0.0, 4.0, 8001)
    for phi in np.linspace(0.0, 3.0, 13):
        vals = [scalar_threshold_objective(s, phi, sigma0, alpha) for s in grid]
        best = grid[int(np.argmin(vals))]
        ours = f_alpha(phi, sigma0, alpha) if alpha > 0 else f_hard(phi, sigma0)
        v_best = scalar_threshold_objective(best, phi, sigma0, alpha)
        v_ours = scalar_threshold_objective(ours, phi, sigma0, alpha)
        assert v_ours <= v_best + 1e-6


def test_apply_svfc_identity_map():
    rng = np.random.default_rng(3)
    for shape in ((5, 5), (8, 3), (20, 50)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kept = update_at_zero(a, 0.5 * np.linalg.svd(a, compute_uv=False)[-1])  # below every value
        assert np.linalg.norm(kept - a) <= 1e-9 * np.linalg.norm(a)


def test_apply_svfc_zero_map():
    a = np.arange(6.0).reshape(2, 3)
    assert_allclose(update_at_zero(a, 100.0), 0.0, atol=1e-12)  # above every value


def test_apply_svfc_hard_threshold_diagonal():
    a = np.diag([3.0, 0.5])
    out = update_at_zero(a, 1.0)
    assert_allclose(out, np.diag([3.0, 0.0]), atol=1e-12)


@settings(deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
def test_apply_svfc_contraction(seed, alpha):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 12, size=2)
    a = rng.standard_normal((m, n))
    out = update_at_zero(a, 1.0, alpha)
    assert np.linalg.norm(out) <= np.linalg.norm(a) + 1e-12


def test_truncation_energy_bound():
    # removing the sub-threshold part changes the matrix by at most
    # sqrt(K) * sigma0 in Frobenius norm
    rng = np.random.default_rng(4)
    sigma0 = 0.8
    for _ in range(20):
        m, n = rng.integers(2, 30, size=2)
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        kept = update_at_zero(a, sigma0)
        k = min(m, n)
        assert np.linalg.norm(a - kept) ** 2 <= k * sigma0**2 + 1e-9


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros(4), 1e-9) == 0


def test_numerical_rank_tiny_second_value():
    assert numerical_rank(np.array([1.0, 1e-14]), 1e-9) == 1


def test_numerical_rank_full():
    assert numerical_rank(np.ones(7), 1e-9) == 7


def test_numerical_rank_tol_validation():
    with pytest.raises(ValueError):
        numerical_rank(np.ones(2), 0.0)
    with pytest.raises(ValueError):
        numerical_rank(np.ones(2), 1.0)
