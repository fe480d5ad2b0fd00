import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from slra.envelope import RankObjective
from slra.matops import (
    f_alpha,
    f_hard,
    frobenius_inner,
    frobenius_norm,
    numerical_rank,
    singular_values,
)


def update_at_zero(a, sigma0, alpha=0.0):
    """The singular value functional calculus of f_alpha(., sigma0, alpha)
    applied to ``a``, as the primal update at Lambda = 0 computes it."""
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


def test_frobenius_inner_identity():
    eye = np.eye(2)
    assert frobenius_inner(eye, eye) == 2.0


def test_frobenius_inner_zero():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert frobenius_inner(a, np.zeros_like(a)) == 0.0


def test_frobenius_inner_complex_hand_value():
    a = np.array([[1j]])
    assert frobenius_inner(a, a) == pytest.approx(1.0)


def test_frobenius_inner_symmetric_and_norm_consistent():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert frobenius_inner(a, b) == pytest.approx(frobenius_inner(b, a))
    assert frobenius_inner(a, a) == pytest.approx(np.linalg.norm(a) ** 2)


def test_frobenius_inner_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius_inner(np.ones((2, 2)), np.ones((2, 3)))


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


def test_svd_diagonal():
    assert_allclose(singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])


def test_svd_zero_matrix():
    assert_allclose(singular_values(np.zeros((3, 2))), 0.0)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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


def test_f_alpha_zero_delegates_to_hard():
    for x in (0.3, 1.0, 2.5):
        assert f_alpha(x, 1.0, 0.0) == f_hard(x, 1.0)


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
            got = f_alpha(x, sigma0, alpha)
            want = (_masked_f_alpha(x, sigma0, alpha) if alpha > 0
                    else _masked_f_hard(x, sigma0))
            if np.ndim(x) == 0:
                assert type(got) is float and type(got_hard) is float
            assert np.array_equal(got_hard, _masked_f_hard(x, sigma0))
            assert np.array_equal(got, want)


def test_f_alpha_rejects_negative():
    with pytest.raises(ValueError):
        f_alpha(-0.1, 1.0, 0.2)
    with pytest.raises(ValueError):
        f_alpha(0.1, 1.0, -0.2)


@given(
    x=st.floats(0.0, 50.0),
    sigma0=st.floats(0.01, 10.0),
    alpha=st.floats(0.0, 2.0),
)
def test_f_alpha_bounded_by_identity(x, sigma0, alpha):
    y = f_alpha(x, sigma0, alpha)
    assert 0.0 <= y <= x + 1e-12


@given(
    sigma0=st.floats(0.1, 5.0),
    alpha=st.floats(0.0, 2.0),
    data=st.data(),
)
def test_f_alpha_monotone(sigma0, alpha, data):
    x1 = data.draw(st.floats(0.0, 20.0))
    x2 = data.draw(st.floats(0.0, 20.0))
    lo, hi = sorted((x1, x2))
    assert f_alpha(lo, sigma0, alpha) <= f_alpha(hi, sigma0, alpha) + 1e-12


def test_f_alpha_converges_to_hard_threshold():
    sigma0 = 1.3
    for x in (0.0, 0.7, 1.2999, 1.3001, 2.0, 5.0):
        vals = [f_alpha(x, sigma0, a) for a in (1e-3, 1e-5, 1e-7)]
        target = f_hard(x, sigma0)
        if not sigma0 <= x < sigma0 * (1 + 5e-4):  # shrinking ramp excluded
            assert vals[-1] == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 1.0])
def test_f_alpha_minimizes_scalar_objective(alpha):
    # oracle: dense grid search of the per-singular-value objective
    sigma0 = 1.0
    grid = np.linspace(0.0, 4.0, 8001)
    for phi in np.linspace(0.0, 3.0, 13):
        vals = [scalar_threshold_objective(s, phi, sigma0, alpha) for s in grid]
        best = grid[int(np.argmin(vals))]
        ours = f_alpha(phi, sigma0, alpha)
        v_best = scalar_threshold_objective(best, phi, sigma0, alpha)
        v_ours = scalar_threshold_objective(ours, phi, sigma0, alpha)
        assert v_ours <= v_best + 1e-6


def test_apply_svfc_identity_map():
    rng = np.random.default_rng(3)
    for shape in ((5, 5), (8, 3), (20, 50)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kept = update_at_zero(a, 0.5 * singular_values(a)[-1])  # below every value
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
    assert numerical_rank(np.zeros((4, 4))) == 0


def test_numerical_rank_tiny_second_value():
    assert numerical_rank(np.diag([1.0, 1e-14]), 1e-9) == 1


def test_numerical_rank_full():
    assert numerical_rank(np.eye(7)) == 7


def test_numerical_rank_tol_validation():
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), 0.0)
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), 1.0)


def test_singular_values_matches_svd():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 4))
    assert_allclose(singular_values(a), np.linalg.svd(a, full_matrices=False)[1],
                    rtol=1e-12)
