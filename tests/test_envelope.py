import numpy as np
import pytest
from numpy.testing import assert_allclose

from doubles import ToyObjective, toy_conjugate
from slra import envelope
from slra.envelope import RankObjective, toy_tilted_minimizers
from slra.matops import f_hard, frobenius_inner


@pytest.fixture
def diag_obj():
    return RankObjective(np.diag([2.0, 0.5]), 1.0)


def test_primal_value_at_data(diag_obj):
    # X = F, full rank 2
    assert diag_obj.primal_value(diag_obj.F) == pytest.approx(2.0)


def test_primal_value_at_zero(diag_obj):
    assert diag_obj.primal_value(np.zeros((2, 2))) == pytest.approx(4.25)


def test_primal_value_hand_example(diag_obj):
    assert diag_obj.primal_value(np.diag([2.0, 0.0])) == pytest.approx(1.25)


def test_envelope_value_at_zero(diag_obj):
    assert diag_obj.feasible_value(np.zeros((2, 2))) == pytest.approx(4.25)


def test_envelope_value_hand_example(diag_obj):
    assert diag_obj.feasible_value(np.diag([2.0, 0.25])) == pytest.approx(1.5)


def test_envelope_equals_primal_above_threshold(diag_obj):
    x = np.diag([2.0, 1.5])
    assert diag_obj.feasible_value(x) == pytest.approx(diag_obj.primal_value(x))


def test_conjugate_at_minus_two_f(diag_obj):
    # conjugate(Lambda) = -dual_value_da(-Lambda)
    assert -diag_obj.dual_value_da(2.0 * diag_obj.F) == pytest.approx(-4.25)


def test_conjugate_at_zero(diag_obj):
    assert -diag_obj.dual_value_da(np.zeros((2, 2))) == pytest.approx(-1.25)


def test_dual_value_da_definition(diag_obj):
    # ||F||^2 - sum_j max(sigma_j^2(F - Lambda/2) - sigma0^2, 0)
    lam = np.array([[0.3, -0.1], [0.2, 0.4]])
    s = np.linalg.svd(diag_obj.F - lam / 2, compute_uv=False)
    excess = np.maximum(s**2 - diag_obj.sigma0**2, 0.0)
    expected = np.linalg.norm(diag_obj.F) ** 2 - np.sum(excess)
    assert diag_obj.dual_value_da(lam) == pytest.approx(expected)


def test_dual_value_da_at_two_f(diag_obj):
    assert diag_obj.dual_value_da(2.0 * diag_obj.F) == pytest.approx(4.25)


def test_tilted_minimizer_hard_threshold(diag_obj):
    assert_allclose(diag_obj.update(np.zeros((2, 2)), 0.0).x,
                    np.diag([2.0, 0.0]), atol=1e-12)


def test_tilted_minimizer_zero_at_two_f(diag_obj):
    for alpha in (0.0, 0.2, 1.0):
        assert_allclose(diag_obj.update(2.0 * diag_obj.F, alpha).x,
                        0.0, atol=1e-12)


def test_tilted_minimizer_ramp_boundary():
    # F - Lambda/2 = diag(1.1), knee of f_alpha at alpha = 0.2
    obj = RankObjective(np.array([[1.1]]), 1.0)
    out = obj.update(np.zeros((1, 1)), 0.2).x
    assert out[0, 0] == pytest.approx(1.0)


def test_degenerate_warning_on_threshold_tie():
    obj = RankObjective(np.diag([1.0, 2.0]), 1.0)
    assert obj.update(np.zeros((2, 2)), 0.0).degenerate


def test_no_warning_away_from_tie():
    obj = RankObjective(np.diag([2.0, 0.5]), 1.0)
    assert not obj.update(np.zeros((2, 2)), 0.0).degenerate


def test_fenchel_young_and_equality_case():
    # N(X) + N*(L) >= <X, L>, equality at X = hard-threshold of F + L/2
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        obj = RankObjective(f, 1.0)
        lam = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        conj = -obj.dual_value_da(-lam)
        for _ in range(10):
            x = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
            gap = obj.primal_value(x) + conj - frobenius_inner(x, lam)
            assert gap >= -1e-9
        upd = obj.update(-lam, 0.0)  # minimizer of N(X) - <X, L>
        if not upd.degenerate:
            x_star = upd.x
            gap = obj.primal_value(x_star) + conj - frobenius_inner(x_star, lam)
            assert abs(gap) <= 1e-8 * (1 + abs(conj))


def test_envelope_below_primal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m, n = rng.integers(1, 31, size=2)
        f = rng.standard_normal((m, n))
        obj = RankObjective(f, float(rng.uniform(0.2, 2.0)))
        x = rng.standard_normal((m, n)) * rng.uniform(0.1, 3.0)
        assert obj.feasible_value(x) <= obj.primal_value(x) + 1e-9


def test_envelope_midpoint_convexity():
    rng = np.random.default_rng(2)
    obj = RankObjective(rng.standard_normal((8, 6)), 1.0)
    for _ in range(200):
        x = rng.standard_normal((8, 6)) * rng.uniform(0.1, 2.0)
        y = rng.standard_normal((8, 6)) * rng.uniform(0.1, 2.0)
        mid = obj.feasible_value((x + y) / 2)
        assert mid <= (obj.feasible_value(x) + obj.feasible_value(y)) / 2 + 1e-9


def test_conjugate_matches_tilted_scan():
    # -conjugate(-L) equals the minimum of envelope + <X, L> over a family
    # of scaled thresholdings, attained at the tilted minimizer
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = rng.standard_normal((4, 4))
        obj = RankObjective(f, 0.8)
        lam = rng.standard_normal((4, 4)) * 0.5
        target = obj.dual_value_da(lam)
        x_star = obj.update(lam, 0.0).x
        val_star = obj.feasible_value(x_star) + frobenius_inner(x_star, lam)
        assert val_star == pytest.approx(target, abs=1e-8)
        for _ in range(40):
            x = x_star + rng.standard_normal((4, 4)) * rng.uniform(0, 0.5)
            val = obj.feasible_value(x) + frobenius_inner(x, lam)
            assert val >= target - 1e-9


def test_augmented_minimizer_beats_perturbations():
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = rng.standard_normal((5, 4))
        obj = RankObjective(f, float(rng.uniform(0.5, 1.5)))
        lam = rng.standard_normal((5, 4)) * 0.3
        alpha = float(rng.uniform(0.05, 1.0))
        upd = obj.update(lam, alpha)
        base = (upd.envelope_at_x + frobenius_inner(upd.x, lam)
                + 0.5 * alpha * upd.x_norm_sq)
        for _ in range(100):
            e = rng.standard_normal((5, 4))
            e *= rng.uniform(0, 0.1 * np.linalg.norm(upd.x) + 0.1) / np.linalg.norm(e)
            x = upd.x + e
            val = (obj.feasible_value(x) + frobenius_inner(x, lam)
                   + 0.5 * alpha * np.linalg.norm(x) ** 2)
            assert val >= base - 1e-9


def test_augmented_minimizer_unique_under_perturbed_path():
    # strict convexity: recomputing through a rotated representation gives
    # the same minimizer
    rng = np.random.default_rng(5)
    f = rng.standard_normal((5, 5))
    obj = RankObjective(f, 1.0)
    lam = rng.standard_normal((5, 5)) * 0.2
    x1 = obj.update(lam, 0.3).x
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    obj_rot = RankObjective(q @ f, 1.0)
    x2 = q.conj().T @ obj_rot.update(q @ lam, 0.3).x
    assert np.linalg.norm(x1 - x2) <= 1e-8 * (1 + np.linalg.norm(x1))


def test_dual_value_ada_definition(diag_obj):
    lam = np.array([[0.1, 0.0], [0.2, -0.3]])
    alpha = 0.4
    upd = diag_obj.update(lam, alpha)
    expected = (upd.envelope_at_x + frobenius_inner(upd.x, lam)
                + 0.5 * alpha * upd.x_norm_sq)
    assert diag_obj.dual_value_ada(lam, alpha) == pytest.approx(expected)


def test_dual_value_ada_at_zero_tilt(diag_obj):
    alpha = 0.2
    x = diag_obj.update(np.zeros((2, 2)), alpha).x
    expected = diag_obj.feasible_value(x) + 0.5 * alpha * np.linalg.norm(x) ** 2
    assert diag_obj.dual_value_ada(np.zeros((2, 2)), alpha) == pytest.approx(expected)


def test_update_matches_standalone_ops(diag_obj):
    lam = np.array([[0.5, 0.1], [-0.2, 0.3]])
    upd = diag_obj.update(lam, 0.0)
    u, s, vh = np.linalg.svd(diag_obj.F - lam / 2)
    assert_allclose(upd.x, (u * f_hard(s, diag_obj.sigma0)) @ vh, atol=1e-12)
    assert upd.dual_da == pytest.approx(diag_obj.dual_value_da(lam))
    assert upd.envelope_at_x == pytest.approx(diag_obj.feasible_value(upd.x))
    assert upd.x_norm_sq == pytest.approx(np.linalg.norm(upd.x) ** 2)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_same_update(fast, full):
    assert np.linalg.norm(fast.x - full.x) <= 1e-12 * np.linalg.norm(full.x)
    for field in ("dual_da", "envelope_at_x", "x_norm_sq"):
        assert getattr(fast, field) == pytest.approx(getattr(full, field), rel=1e-12)
    assert fast.degenerate == full.degenerate


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_warm_update_matches_full_update(alpha):
    # rank 4 plus noise, 129x129 complex: 4 values above sigma0
    rng = np.random.default_rng(7)
    F = _complex(rng, 129, 4) @ _complex(rng, 4, 129) + 0.1 * _complex(rng, 129, 129)
    s = np.linalg.svd(F, compute_uv=False)
    obj = RankObjective(F, 0.5 * (s[3] + s[4]))
    lam0 = 0.1 * _complex(rng, 129, 129)
    lam1 = lam0 + 1e-4 * _complex(rng, 129, 129)
    warm = obj.update(lam0, alpha).warm
    fast = obj.update(lam1, alpha, warm, np.linalg.norm(lam1 - lam0))
    full = obj.update(lam1, alpha)
    assert fast.warm.truncated and not full.warm.truncated
    assert fast.warm.captured == full.warm.captured == 4
    assert fast.warm.beta < obj.sigma0
    _assert_same_update(fast, full)


def _passes_of_update(monkeypatch, obj, lam, warm, dlam):
    """The update at ``lam`` after ``warm``, ``dlam`` away from its
    multiplier, and the subspace iteration passes it took (one QR
    factorization each)."""
    passes = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: passes.append(1) or qr(*a, **k))
    upd = obj.update(lam, 0.0, warm, dlam)
    monkeypatch.setattr(np.linalg, "qr", qr)
    return upd, len(passes)


def _path(noise, size=1.0, n=129):
    """Rank 4 plus ``noise`` on n x n complex data, sigma0 between the
    4th and 5th values, a multiplier Lambda_0 and a step D that moves G by
    ``size`` in Frobenius norm; returns the objective, Lambda_0 and D."""
    rng = np.random.default_rng(7)
    F = _complex(rng, n, 4) @ _complex(rng, 4, n) + noise * _complex(rng, n, n)
    s = np.linalg.svd(F, compute_uv=False)
    obj = RankObjective(F, 0.5 * (s[3] + s[4]))
    lam0 = 0.1 * _complex(rng, n, n)
    step = _complex(rng, n, n)
    return obj, lam0, 2.0 * size * step / np.linalg.norm(step)  # G moves by ||dLambda|| / 2


def _unit_step_rows(noise):
    """The objective of ``_path(noise)``, Lambda_0 + D, the warm state of
    Lambda_0 and ||D||."""
    obj, lam0, d = _path(noise)
    lam = lam0 + d
    return obj, lam, obj.update(lam0, 0.0).warm, np.linalg.norm(lam - lam0)


def _truncated_rows(obj, lams):
    """The warm state after a cold row at lams[0] and a truncated row at
    each of ``lams``."""
    warm, prev = obj.update(lams[0], 0.0).warm, lams[0]
    for lam in lams:
        warm, prev = obj.update(lam, 0.0, warm, np.linalg.norm(lam - prev)).warm, lam
        assert warm.truncated
    return warm


def _plain_attempt(obj, lam, warm, dlam, budget):
    """Passes and success of one attempt at ``lam``, ``dlam`` away from
    the previous row's multiplier, from that row's block, given
    ``budget`` passes."""
    g = obj.F - lam * 0.5
    v = warm.vh[:warm.captured + envelope._EXTRA_COLUMNS].conj().T
    tau = obj.sigma0 * (1.0 - envelope.DEGENERATE_RTOL)
    passes, part = envelope._truncated_svd(g, v, warm, 0.5 * dlam, tau, budget)
    return passes, part is not None


def test_large_step_is_accepted_after_more_than_the_base_passes(monkeypatch):
    # values 11 on sit at about 4% of the 4th: each pass cuts the residual
    # about 1000-fold, and three passes leave 9e-12 s_1 after the step, so
    # the row takes four; given three, the attempt stops after the second
    # pass, whose cut predicts the fourth
    obj, lam, warm, dlam = _unit_step_rows(0.3)
    fast, passes = _passes_of_update(monkeypatch, obj, lam, warm, dlam)
    assert fast.warm.truncated and passes == 4
    assert fast.warm.captured == 4 and fast.warm.beta < obj.sigma0
    _assert_same_update(fast, obj.update(lam, 0.0))
    assert _plain_attempt(obj, lam, warm, dlam, 3) == (2, False)


def test_slow_attempt_may_take_more_than_eight_passes(monkeypatch):
    # values 11 on sit at about 37% of the 4th: the row certifies after ten
    # passes, within the budget of 129 / 10 passes
    obj, lam, warm, dlam = _unit_step_rows(3.0)
    fast, passes = _passes_of_update(monkeypatch, obj, lam, warm, dlam)
    assert fast.warm.truncated and passes == fast.warm.passes == 10
    assert fast.warm.captured == 4 and fast.warm.fallbacks == 0
    _assert_same_update(fast, obj.update(lam, 0.0))


def test_attempt_stops_once_its_cut_predicts_more_passes_than_the_budget(monkeypatch):
    # values 11 on sit at about 57% of the 4th: certifying takes 16 passes,
    # more than the budget of 12.9, and the cut measured at the third pass
    # predicts as much, so the attempt stops there and the row falls back
    obj, lam, warm, dlam = _unit_step_rows(5.0)
    assert _plain_attempt(obj, lam, warm, dlam, np.inf) == (16, True)
    upd, passes = _passes_of_update(monkeypatch, obj, lam, warm, dlam)
    assert passes == upd.warm.passes == 3
    assert not upd.warm.truncated
    assert upd.warm.fallbacks == 1 and upd.warm.wait == 1  # next try 2 rows on
    _assert_same_update(upd, obj.update(lam, 0.0))


def test_secant_start_saves_passes_on_a_straight_path(monkeypatch):
    # G moves along a line through truncated rows at Lambda_0 and
    # Lambda_0 + D; the next row, at Lambda_0 + 2D, certifies after one
    # pass from the predicted start and takes three from the previous block
    obj, lam0, d = _path(0.3, 1e-3)
    warm = _truncated_rows(obj, [lam0, lam0 + d])
    lam = lam0 + 2.0 * d
    dlam = np.linalg.norm(lam - (lam0 + d))
    predicted, passes = _passes_of_update(monkeypatch, obj, lam, warm, dlam)
    plain, plain_passes = _passes_of_update(monkeypatch, obj, lam, warm._replace(prev_vh=None),
                                            dlam)
    assert predicted.warm.truncated and plain.warm.truncated
    assert (predicted.warm.passes, plain.warm.passes) == (passes, plain_passes) == (1, 3)
    full = obj.update(lam, 0.0)
    _assert_same_update(predicted, full)
    _assert_same_update(plain, full)


def test_failed_attempt_falls_back_without_a_retry(monkeypatch):
    # at 96x96 the budget is 9.6 passes; after the path turns back, the
    # predicted attempt stops after 6, and the row falls back to the full
    # SVD with no second attempt
    obj, lam0, d = _path(2.0, 10.0, 96)
    warm = _truncated_rows(obj, [lam0, lam0 + d])
    budgets = []
    attempt = envelope._truncated_svd
    monkeypatch.setattr(envelope, "_truncated_svd",
                        lambda *a: budgets.append(a[-1]) or attempt(*a))
    dlam = np.linalg.norm(lam0 - (lam0 + d))
    upd, passes = _passes_of_update(monkeypatch, obj, lam0, warm, dlam)
    assert budgets == pytest.approx([9.6])
    assert passes == upd.warm.passes == 6
    assert not upd.warm.truncated
    assert upd.warm.fallbacks == 1 and upd.warm.wait == 1
    _assert_same_update(upd, obj.update(lam0, 0.0))


@pytest.mark.parametrize("noise", [0.3, 1.0, 3.0, 5.0])
def test_no_attempt_spends_more_than_its_budget(noise):
    obj, lam, warm, dlam = _unit_step_rows(noise)
    for budget in range(2, 14):
        passes, _ = _plain_attempt(obj, lam, warm, dlam, budget)
        assert 1 <= passes <= budget


def _two_rows(s_prev, s_now, sigma0=1.0, seed=8):
    """An objective whose G at Lambda = 0 has singular values ``s_now``, the
    warm state of a previous row whose G had ``s_prev`` in the same
    singular vectors, and ||Lambda_prev|| of that row."""
    rng = np.random.default_rng(seed)
    n = len(s_prev)
    u, _ = np.linalg.qr(_complex(rng, n, n))
    v, _ = np.linalg.qr(_complex(rng, n, n))
    F = (u * s_now) @ v.conj().T
    obj = RankObjective(F, sigma0)
    lam_prev = 2.0 * (F - (u * s_prev) @ v.conj().T)
    return obj, obj.update(lam_prev, 0.0).warm, np.linalg.norm(lam_prev)


def test_tie_below_the_block_falls_back_and_is_degenerate():
    # the fifth direction is outside the previous row's 10-column block,
    # and its value moved up to sigma0 exactly: no Ritz value can see it
    s_prev = np.r_[50.0, 40.0, 30.0, 20.0, 0.01, np.linspace(0.6, 0.1, 91)]
    s_now = s_prev.copy()
    s_now[4] = 1.0
    obj, warm, dlam = _two_rows(s_prev, s_now)
    assert warm.captured == 4 and not warm.truncated
    upd = obj.update(np.zeros(obj.shape), 0.0, warm, dlam)
    assert not upd.warm.truncated and upd.warm.fallbacks == 1
    assert upd.degenerate


def test_value_crossing_sigma0_recertifies_and_matches_full_update():
    s_prev = np.r_[50.0, 40.0, 30.0, 20.0, 0.9, np.linspace(0.6, 0.1, 91)]
    s_now = s_prev.copy()
    s_now[4] = 1.2
    obj, warm, dlam = _two_rows(s_prev, s_now)
    zero = np.zeros(obj.shape)
    upd = obj.update(zero, 0.0, warm, dlam)
    assert upd.warm.truncated and upd.warm.captured == 5
    assert upd.warm.beta < obj.sigma0
    _assert_same_update(upd, obj.update(zero, 0.0))
    # the next row runs on the 10 columns the last one held, one short of
    # k + 6, and still certifies
    again = obj.update(zero, 0.0, upd.warm, 0.0)
    assert again.warm.truncated and again.warm.captured == 5
    _assert_same_update(again, obj.update(zero, 0.0))


def test_nonfinite_g_never_passes_the_certificate(monkeypatch):
    s = np.r_[50.0, 40.0, 30.0, 20.0, np.linspace(0.6, 0.1, 92)]
    obj, warm, dlam = _two_rows(s, s)
    attempts = []
    original = envelope._truncated_svd
    monkeypatch.setattr(envelope, "_truncated_svd",
                        lambda *a: attempts.append(original(*a)) or attempts[-1])
    assert obj.update(np.zeros(obj.shape), 0.0, warm, dlam).warm.truncated
    bad = np.zeros(obj.shape)
    bad[3, 5] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        obj.update(bad, 0.0, warm, np.nan)  # the fallback's full SVD fails
    assert attempts[0][1] is not None and attempts[1][1] is None


def test_warm_start_needs_the_move_of_lambda():
    obj, warm, _ = _two_rows(np.r_[3.0, 2.0, 0.5], np.r_[3.0, 2.0, 0.5])
    with pytest.raises(ValueError, match="dlam"):
        obj.update(np.zeros(obj.shape), 0.0, warm)


def test_rank_objective_validation():
    for sigma0 in (0.0, np.inf):
        with pytest.raises(ValueError):
            RankObjective(np.ones((2, 2)), sigma0)
    with pytest.raises(ValueError):
        RankObjective(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        RankObjective(np.ones((2, 2)), 1.0).primal_value(np.ones((3, 3)))


# ---------------------------------------------------------------------------
# scalar toy objective
# ---------------------------------------------------------------------------

def test_toy_conjugate_values():
    assert toy_conjugate(0.0) == 0.0
    assert toy_conjugate(2.0) == 2.0  # branch continuity
    assert toy_conjugate(4.0) == 5.0
    assert toy_conjugate(-4.0) == 5.0


def test_toy_conjugate_matches_brute_force():
    xs = np.linspace(-6, 6, 24001)  # grid hits the +-1 kinks exactly
    for lam in (-3.0, -1.0, -0.5, 0.0, 0.7, 2.0, 3.5):
        brute = np.max(lam * xs - np.abs(xs**2 - 1.0))
        assert toy_conjugate(lam) == pytest.approx(brute, abs=1e-6)


def test_toy_minimizers_at_zero():
    assert set(toy_tilted_minimizers(0.0)) == {1.0, -1.0}


def test_toy_minimizers_small_positive():
    assert toy_tilted_minimizers(0.5) == (-1.0,)
    assert toy_tilted_minimizers(1.0) == (-1.0,)


def test_toy_minimizers_match_grid_oracle():
    xs = np.linspace(-8, 8, 200001)
    for lam in (-4.0, -2.5, -1.0, -0.2, 0.3, 1.5, 2.5, 5.0):
        vals = np.abs(xs**2 - 1.0) + lam * xs
        best = xs[int(np.argmin(vals))]
        cands = toy_tilted_minimizers(lam)
        assert min(abs(best - c) for c in cands) <= 1e-3


def test_toy_objective_update_tie_break():
    obj = ToyObjective()
    upd = obj.update(np.zeros((1, 1)), 0.0)
    assert upd.x[0, 0] == 1.0  # deterministic pick at the tie


def test_toy_objective_dual_consistency():
    obj = ToyObjective()
    lam = np.array([[0.7]])
    assert obj.update(lam).dual_da == pytest.approx(-toy_conjugate(-0.7))
