import csv
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from doubles import ToyObjective, ZeroSubspace, toy_conjugate
from slra import envelope, harness, solvers
from slra.envelope import PrimalUpdate, RankObjective
from slra.harness import ExperimentConfig, run_freqest_study
from slra.matops import frobenius_inner
from slra.signals import (
    NoiseSpec,
    add_noise,
    gen_cos_sum,
    sigma0_heuristic,
    signal_to_hankel,
)
from slra.solvers import (
    SolverConfig,
    SolverTrace,
    run,
)
from slra.subspace import HankelSubspace

TOY_LAMBDAS = (1.0, 1.0 / 2.0, 1.0 / 6.0, -1.0 / 12.0, 7.0 / 60.0)


def hankel_problem(seed, rows=20, cols=20, sigma0=None, noise=0.1):
    rng = np.random.default_rng(seed)
    sub = HankelSubspace(rows, cols)
    f = gen_cos_sum(rng, n_samples=rows + cols - 1)
    h = sub.from_vector(f)
    F = add_noise(h, NoiseSpec(sigma=noise), rng=rng)
    if sigma0 is None:
        s = np.linalg.svd(F, compute_uv=False)
        k = min(8, min(rows, cols) - 1)
        sigma0 = 0.5 * (s[k - 1] + s[k])
    return RankObjective(F, sigma0), sub, h


# ---------------------------------------------------------------------------
# step rules
# ---------------------------------------------------------------------------

def test_schedule_values():
    assert SolverConfig(solvers.DA).step(0) == 1.0
    assert SolverConfig(solvers.DA).step(4) == pytest.approx(0.2)
    assert SolverConfig(solvers.ADA, 0.3).step(17) == 0.3
    assert SolverConfig(solvers.MOD_ADA, 0.1).step(0) == pytest.approx(2.1)
    assert SolverConfig(solvers.MOD_ADA, 0.1).step(9) == pytest.approx(0.12)
    assert SolverConfig(solvers.DA, sqrt_steps=True).step(0) == 1.0
    assert SolverConfig(solvers.DA, sqrt_steps=True).step(3) == 0.5


def test_da_steps_meet_the_decaying_step_condition():
    # sum alpha_n^2 / sum alpha_n -> 0 with steps in (0, 1]: the condition
    # of the decaying-step convergence theorem, checked over a finite
    # horizon for both rules the studies run
    for cfg in (SolverConfig(solvers.DA), SolverConfig(solvers.DA, sqrt_steps=True)):
        steps = np.array([cfg.step(n) for n in range(1, 10_001)])
        assert np.all((steps > 0) & (steps <= 1))
        assert np.all(np.diff(steps) <= 0)
        ratios = np.cumsum(steps**2) / np.cumsum(steps)
        assert ratios[-1] < 0.1
        assert np.all(np.diff(ratios[len(ratios) // 2:]) <= 1e-15)


def test_config_couplings():
    for variant, kw in ((solvers.DA, dict(alpha_reg=0.1)),
                        (solvers.ADA, dict(alpha_reg=0.0)),
                        (solvers.MOD_ADA, dict(alpha_reg=-0.1)),
                        (solvers.ADA, dict(alpha_reg=0.1, sqrt_steps=True)),
                        ("ista", dict()),
                        (solvers.DA, dict(max_iters=-1)),
                        (solvers.ADA, dict(alpha_reg=np.inf)),
                        (solvers.DA, dict(stop_tol=0.0)),
                        (solvers.DA, dict(stop_tol=np.inf))):
        with pytest.raises(ValueError):
            SolverConfig(variant, **kw)
    # valid ones construct fine
    SolverConfig(solvers.DA)
    SolverConfig(solvers.DA, sqrt_steps=True)
    SolverConfig(solvers.ADA, 0.1)
    SolverConfig(solvers.MOD_ADA, 0.01)


# ---------------------------------------------------------------------------
# the scalar toy: exact regression of the multiplier sequence
# ---------------------------------------------------------------------------

def test_toy_da_lambda_sequence():
    res = run(ToyObjective(), ZeroSubspace(1, 1),
              SolverConfig(solvers.DA, max_iters=5, stop_tol=1e-300))
    assert_allclose(res.trace.lambda_norm[1:], np.abs(TOY_LAMBDAS), atol=1e-12)
    assert res.Lambda_star[0, 0] == pytest.approx(7.0 / 60.0, abs=1e-12)
    assert res.n_iters == 5


def test_toy_da_dual_values_from_conjugate():
    res = run(ToyObjective(), ZeroSubspace(1, 1),
              SolverConfig(solvers.DA, max_iters=5, stop_tol=1e-300))
    lams = [0.0, *TOY_LAMBDAS]
    expected = [-toy_conjugate(-l) for l in lams]
    assert_allclose(res.trace.dual, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# generic run behaviour
# ---------------------------------------------------------------------------

class ScriptedObjective:
    """1x1 objective whose rows have scripted duals, and a NaN minimizer at
    row ``nan_row``."""

    shape = (1, 1)

    def __init__(self, duals, nan_row=None):
        self.duals, self.nan_row, self.row = duals, nan_row, 0

    def feasible_value(self, x, alpha=0.0):
        return 0.0

    def update(self, lam, alpha, warm, dlam):
        k, self.row = self.row, self.row + 1
        x = np.full((1, 1), np.nan if k == self.nan_row else 1.0)
        return PrimalUpdate(x, self.duals[k], lambda: 0.0, 1.0, False)


@pytest.mark.parametrize("duals, best", [
    ([1.0, 2.0, 2.0 * (1 + 1e-14), 1.9], [0, 1, 2, 2]),  # a rounding tie: the later row
    ([1.0, 2.0, 2.0 - 1e-9], [0, 1, 1]),                 # a real drop: the earlier one
])
def test_da_best_row_is_latest_within_tolerance(duals, best):
    res = run(ScriptedObjective(duals), ZeroSubspace(1, 1),
              SolverConfig(solvers.DA, max_iters=len(duals) - 1, stop_tol=1e-300))
    assert list(res.trace.best_n) == best
    res.trace.check_invariants()


@pytest.mark.parametrize("duals, best", [
    ([1.0, 2.0, 2.0 * (1 + 1e-14), 1.9], [0, 1, 1, 1]),
    ([1.0, 2.0, 2.0 - 1e-9], [0, 1, 2]),
    ([1.0, 2.0, 1.5], [0, 1, 0]),
])
def test_check_invariants_rejects_other_best_rows(duals, best):
    n = len(duals)
    trace = SolverTrace(np.arange(n), np.zeros(n), np.array(duals), np.zeros(n),
                        np.zeros(n), np.zeros(n), np.array(best))
    with pytest.raises(AssertionError):
        trace.check_invariants()


def test_nonfinite_multiplier_carries_priced_rows():
    obj = ScriptedObjective([1.0, 2.0, 3.0, 4.0, 5.0], nan_row=2)
    with pytest.raises(solvers.SolverNumericalError,
                       match="non-finite multiplier at iteration 3") as exc:
        run(obj, ZeroSubspace(1, 1), SolverConfig(solvers.DA, max_iters=4, stop_tol=1e-300))
    assert list(exc.value.trace.n) == [0, 1, 2]
    exc.value.trace.check_invariants()


def test_zero_iterations():
    obj, sub, _ = hankel_problem(0)
    res = run(obj, sub, SolverConfig(solvers.DA, max_iters=0))
    assert len(res.trace) == 1
    assert res.trace.dual[0] == pytest.approx(obj.dual_value_da(np.zeros(sub.shape)))
    assert np.isfinite(res.trace.primal[0])
    assert_allclose(res.X_star, 0.0)


def test_hankel_data_with_clean_split_converges_immediately():
    # F Hankel built from a rank-2 signal, sigma0 separating: X^1 = S(F)
    sub = HankelSubspace(8, 8)
    j = np.arange(15)
    f = np.exp(0.3j * j) + 0.8 * np.exp(1.1j * j)
    F = sub.from_vector(f)
    s = np.linalg.svd(F, compute_uv=False)
    obj = RankObjective(F, 0.5 * (s[1] + s[2]))
    res = run(obj, sub, SolverConfig(solvers.DA, max_iters=50, stop_tol=1e-8))
    # hard-thresholding a rank-2 Hankel keeps it nearly Hankel: fast exit
    assert res.converged
    assert res.n_iters <= 5


def test_zero_data_returns_zero():
    sub = HankelSubspace(5, 5)
    obj = RankObjective(np.zeros((5, 5)), 1.0)
    res = run(obj, sub, SolverConfig(solvers.DA, max_iters=20, stop_tol=1e-10))
    assert res.converged
    assert_allclose(res.X_star, 0.0)


def test_lambda_stays_in_complement():
    obj, sub, _ = hankel_problem(1)
    for cfg in (SolverConfig(solvers.DA, max_iters=40, stop_tol=1e-300),
                SolverConfig(solvers.ADA, 0.1, max_iters=40, stop_tol=1e-300),
                SolverConfig(solvers.MOD_ADA, 0.1, max_iters=40, stop_tol=1e-300)):
        res = run(obj, sub, cfg)
        lam = res.Lambda_star
        assert np.linalg.norm(sub.project(lam)) <= 1e-10 * (1 + np.linalg.norm(lam))


def test_weak_duality_along_traces():
    obj, sub, _ = hankel_problem(2)
    for cfg in (SolverConfig(solvers.DA, max_iters=60, stop_tol=1e-300),
                SolverConfig(solvers.ADA, 0.2, max_iters=60, stop_tol=1e-300),
                SolverConfig(solvers.MOD_ADA, 0.2, max_iters=60, stop_tol=1e-300)):
        res = run(obj, sub, cfg)
        assert np.max(res.trace.dual) <= np.min(res.trace.primal) + 1e-8


@pytest.mark.parametrize("make", [
    lambda **kw: SolverConfig(solvers.DA, **kw),
    lambda **kw: SolverConfig(solvers.ADA, 0.1, **kw),
    lambda **kw: SolverConfig(solvers.MOD_ADA, 0.1, **kw),
], ids=["da", "ada", "mod_ada"])
def test_primal_tracking_changes_only_the_primal_column(make):
    # one cosine-sum run serves the curves, distances and singular values
    # only because pricing primal values leaves everything else untouched
    obj, sub, _ = hankel_problem(11, rows=21, cols=20, sigma0=0.8)
    tracked, bare = (run(obj, sub, make(max_iters=40, stop_tol=1e-300, track_primal=t))
                     for t in (True, False))
    assert np.all(np.isfinite(tracked.trace.primal)) and np.all(np.isnan(bare.trace.primal))
    for col in ("dual", "feas_residual", "lambda_norm", "step_norm", "best_n"):
        assert_array_equal(getattr(tracked.trace, col), getattr(bare.trace, col))
    assert_array_equal(tracked.X_star, bare.X_star)
    assert_array_equal(tracked.Lambda_star, bare.Lambda_star)
    assert (tracked.n_iters, tracked.full_svds) == (bare.n_iters, bare.full_svds)


def test_ada_dual_monotone_increase_inequality():
    obj, sub, _ = hankel_problem(3, rows=15, cols=15)
    alpha = 0.15
    res = run(obj, sub, SolverConfig(solvers.ADA, alpha, max_iters=150, stop_tol=1e-300))
    inc = np.diff(res.trace.dual)
    req = res.trace.step_norm[1:] ** 2 / alpha
    assert np.all(inc - req >= -1e-9)


def test_ada_step_square_sums_plateau():
    obj, sub, _ = hankel_problem(4, rows=15, cols=15)
    res = run(obj, sub, SolverConfig(solvers.ADA, 0.2, max_iters=400, stop_tol=1e-300))
    sq = res.trace.step_norm**2
    total = np.sum(sq)
    assert np.sum(sq[: len(sq) // 2]) >= 0.95 * total  # summable in practice


def test_da_best_iterate_duals_monotone():
    obj, sub, _ = hankel_problem(5)
    res = run(obj, sub, SolverConfig(solvers.DA, max_iters=80, stop_tol=1e-300))
    best_duals = res.trace.dual[res.trace.best_n]
    assert np.all(np.diff(best_duals) >= -1e-12)
    res.trace.check_invariants()


def test_ada_fixed_point_and_kkt():
    obj, sub, _ = hankel_problem(6, rows=12, cols=12)
    alpha = 0.3
    res = run(obj, sub, SolverConfig(solvers.ADA, alpha, max_iters=3000, stop_tol=1e-9))
    assert res.converged
    # X* is the projected tilted minimizer and nearly feasible
    x_direct = obj.update(res.Lambda_star, alpha).x
    assert np.linalg.norm(x_direct - sub.project(x_direct)) <= 1e-8 * (
        1 + np.linalg.norm(x_direct)
    )
    assert np.linalg.norm(sub.project(x_direct) - res.X_star) <= 1e-6


def test_mod_ada_matches_ada_limit_quality():
    obj, sub, _ = hankel_problem(7, rows=15, cols=15)
    alpha = 0.1
    r1 = run(obj, sub, SolverConfig(solvers.ADA, alpha, max_iters=4000, stop_tol=1e-8))
    r2 = run(obj, sub, SolverConfig(solvers.MOD_ADA, alpha, max_iters=4000, stop_tol=1e-8))
    v1 = obj.feasible_value(r1.X_star, alpha)
    v2 = obj.feasible_value(r2.X_star, alpha)
    assert v2 == pytest.approx(v1, rel=1e-5)


def test_degenerate_status_surfaced():
    obj = RankObjective(np.diag([1.0, 3.0]), 1.0)  # singular value == sigma0
    res = run(obj, ZeroSubspace(2, 2), SolverConfig(solvers.DA, max_iters=3, stop_tol=1e-300))
    assert res.degenerate
    assert res.status == "degenerate_warning"


def test_numerical_failure_carries_priced_rows():
    obj, sub, _ = hankel_problem(11, rows=8, cols=8)

    class FailingObjective:
        shape = obj.shape
        feasible_value = staticmethod(obj.feasible_value)
        calls = 0

        def update(self, lam, alpha, warm, dlam):
            self.calls += 1
            if self.calls == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
            return obj.update(lam, alpha, warm, dlam)

    cfg = SolverConfig(solvers.DA, max_iters=10, stop_tol=1e-300)
    with pytest.raises(solvers.SolverNumericalError, match="row 2") as exc:
        run(FailingObjective(), sub, cfg)
    assert list(exc.value.trace.n) == [0, 1]
    assert np.all(np.isfinite(exc.value.trace.dual))
    exc.value.trace.check_invariants()

    class HalfProjector(HankelSubspace):  # P(Lambda) != 0 after any step
        def project(self, x):
            return 0.5 * x

    with pytest.raises(solvers.SolverNumericalError, match="complement") as exc:
        run(obj, HalfProjector(8, 8), cfg)
    assert list(exc.value.trace.n) == [0]


def _freqest_trial_run(monkeypatch, snr_dbw):
    """One freqest trial at ``snr_dbw``: the study and its (objective, result)."""
    calls = []
    original = solvers.run

    def recording_run(objective, subspace, config):
        calls.append((objective, original(objective, subspace, config)))
        return calls[-1][1]

    monkeypatch.setattr(solvers, "run", recording_run)
    study = run_freqest_study(ExperimentConfig("freqest", trials=1), snr_levels=(snr_dbw,))
    monkeypatch.setattr(solvers, "run", original)
    return study, *calls[0]


def _never_truncate(monkeypatch):
    """Every truncated attempt fails without a pass: every row takes the
    full SVD."""
    monkeypatch.setattr(envelope, "_truncated_svd", lambda *a: (0, None))


def _assert_same_run(fast, full):
    assert fast.n_iters == full.n_iters
    assert_array_equal(fast.trace.best_n, full.trace.best_n)
    assert_allclose(fast.trace.dual, full.trace.dual, rtol=1e-9)
    assert_allclose(fast.trace.lambda_norm, full.trace.lambda_norm, rtol=1e-9)
    assert np.linalg.norm(fast.X_star - full.X_star) <= 1e-12 * np.linalg.norm(full.X_star)


@pytest.mark.parametrize("snr_dbw", [0.0, 15.0, 20.0])
def test_freqest_trial_matches_full_svd_path(monkeypatch, snr_dbw):
    study, obj, fast = _freqest_trial_run(monkeypatch, snr_dbw)
    _never_truncate(monkeypatch)
    full_study, _, full = _freqest_trial_run(monkeypatch, snr_dbw)

    truncated = fast.n_iters + 1 - fast.full_svds
    if snr_dbw > 0:  # row 0 has no warm start; every later row is truncated
        assert fast.full_svds == 1
    else:  # a few early attempts fall back, and the backoff prices some rows
        assert 1 < fast.full_svds < 0.02 * truncated
    # the secant start certifies most rows after one pass; at 0 dBW each
    # pass cuts the residual only a few fold
    assert study["passes_per_truncated_row"] == fast.passes / truncated
    assert fast.passes / truncated <= (1.6 if snr_dbw > 0 else 2.5)
    assert study["levels"] == [{"snr_dbw": snr_dbw, **{
        key: study[key] for key in ("full_svd_fraction", "passes_per_truncated_row")}}]
    assert full_study["full_svd_fraction"] == 1.0
    assert full.full_svds == full.n_iters + 1 and full.passes == 0
    _assert_same_run(fast, full)
    # the residual ends near 1e-6, so its own rounding is about 5e-7 of it
    assert_allclose(fast.trace.feas_residual, full.trace.feas_residual,
                    rtol=0, atol=1e-9 * np.linalg.norm(obj.F))


@pytest.mark.parametrize("variant", solvers.VARIANTS)
def test_solve_sized_run_matches_full_svd_path(monkeypatch, variant):
    # a noisy four-tone signal as ``slra solve`` builds it: 64x63 Hankel,
    # sigma0 from the gap at 4, so a budget of 6.3 passes per row
    rng = np.random.default_rng(11)
    tones = -rng.uniform(0.0, 0.005, 4) + 1j * (0.3 + 0.7 * np.arange(4))
    amps = np.exp(2j * np.pi * rng.uniform(size=4))
    f = np.exp(np.multiply.outer(np.arange(126), tones)) @ amps
    F = signal_to_hankel(add_noise(f, NoiseSpec(snr_dbw=15.0), rng=rng))
    assert F.shape == (64, 63)
    obj, sub = RankObjective(F, sigma0_heuristic(F, 4)), HankelSubspace(*F.shape)
    cfg = SolverConfig(variant, 0.0 if variant == solvers.DA else 0.1, max_iters=100)
    fast = run(obj, sub, cfg)
    _never_truncate(monkeypatch)
    full = run(obj, sub, cfg)
    assert fast.full_svds < (fast.n_iters + 1) / 2 and fast.passes > 0
    assert full.full_svds == full.n_iters + 1
    _assert_same_run(fast, full)


def _weyl_steps(monkeypatch):
    """For every warm row of the runs to come, (dg, ||G - G_prev||_F,
    ||Lambda - Lambda_prev||_F / 2): the bound the update took for the
    Weyl step, the move of the computed G = F - Lambda/2 it bounds, and
    half the move of the multiplier."""
    steps, prev = [], {}
    update = RankObjective.update

    def recording(self, lam, alpha=0.0, warm=None, dlam=None):
        upd = update(self, lam, alpha, warm, dlam)
        g = self.F - lam * 0.5  # as the update forms it
        if warm is not None:
            steps.append((upd.warm.dg, float(np.linalg.norm(g - prev["g"])),
                          0.5 * float(np.linalg.norm(lam - prev["lam"]))))
        prev.update(g=g, lam=lam)
        return upd

    monkeypatch.setattr(RankObjective, "update", recording)
    return steps


@pytest.mark.parametrize("trial", ["freqest 0 dBW", "freqest 20 dBW", "converge"])
def test_weyl_step_bounds_the_move_of_g_on_every_warm_row(monkeypatch, trial):
    steps = _weyl_steps(monkeypatch)
    if trial == "converge":  # da, ada and mod_ada, 100 rows after row 0 each
        c = ExperimentConfig("converge")
        harness._cossum_trial((1, 100, c.alpha, c.sigma0, c.sigma0_gap_p, c.noise_sigma))
        rows = 3 * 100
    else:
        snr_dbw = float(trial.split()[1])
        rows = harness._freqest_trial((0, snr_dbw, harness.FREQEST_MAX_ITERS))[3]
    dg, dist, _ = np.array(steps).T
    assert len(dg) == rows
    assert np.all(dg >= dist)


def test_weyl_step_covers_the_rounding_of_forming_g(monkeypatch):
    # noise-free four tones at amplitude 1000: X^k is Hankel up to
    # rounding, so each step of Lambda is smaller than the rounding of
    # forming F - Lambda/2, and only the margin for that rounding keeps
    # the bound above the move of G
    rng = np.random.default_rng(5)
    tones = -rng.uniform(0.0, 0.005, 4) + 1j * (0.3 + 0.7 * np.arange(4))
    f = np.exp(np.multiply.outer(np.arange(60), tones)) @ np.exp(2j * np.pi * rng.uniform(size=4))
    sub = HankelSubspace(30, 31)
    F = 1000.0 * sub.from_vector(f)
    steps = _weyl_steps(monkeypatch)
    res = run(RankObjective(F, sigma0_heuristic(F, 4)), sub,
              SolverConfig(solvers.DA, max_iters=50, stop_tol=1e-300))
    assert res.full_svds == 1 and res.n_iters == 50
    dg, dist, half_step = np.array(steps).T
    assert len(dg) == 50
    assert np.all(half_step < dist)
    assert np.all(dg >= dist)


def test_nonfinite_input_to_a_warm_row_fails_as_svd_failure():
    rng = np.random.default_rng(3)
    c = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    obj = RankObjective(c(96, 4) @ c(4, 96) + 0.1 * c(96, 96), 5.0)

    class NaNAtRow2:
        shape = obj.shape
        feasible_value = staticmethod(obj.feasible_value)
        row = 0

        def update(self, lam, alpha, warm, dlam):
            self.row += 1
            return obj.update(np.full(lam.shape, np.nan) if self.row == 3 else lam,
                              alpha, warm, dlam)

    with pytest.raises(solvers.SolverNumericalError, match="SVD failed at row 2") as exc:
        run(NaNAtRow2(), HankelSubspace(96, 96), SolverConfig(solvers.DA, max_iters=5))
    assert list(exc.value.trace.n) == [0, 1]


def test_shape_mismatch_rejected():
    obj = RankObjective(np.ones((3, 3)), 1.0)
    with pytest.raises(ValueError):
        run(obj, HankelSubspace(2, 2), SolverConfig(solvers.DA, max_iters=1))


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    obj, sub, _ = hankel_problem(8)
    res = run(obj, sub, SolverConfig(solvers.DA, max_iters=25, stop_tol=1e-300))
    res.trace.write_csv(tmp_path / "trace.csv")
    back = SolverTrace.read_csv(tmp_path / "trace.csv")
    for col in ("n", "primal", "dual", "feas_residual", "lambda_norm",
                "step_norm", "best_n"):
        a, b = getattr(res.trace, col), getattr(back, col)
        assert_allclose(b, a, rtol=1e-11)
    back.check_invariants()


def test_trace_csv_significant_digits(tmp_path):
    tr = SolverTrace(
        n=np.array([0, 1]),
        primal=np.array([1.2345678901234e2, np.nan]),
        dual=np.array([-1.0, 2.0]),
        feas_residual=np.array([0.0, 3.0]),
        lambda_norm=np.array([0.0, 1.0]),
        step_norm=np.array([0.0, 1.0]),
        best_n=np.array([0, 1]),
    )
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "n,primal,dual,feas_residual,lambda_norm,step_norm,best_n"
    assert "1.234567890123e+02" in text
    back = SolverTrace.read_csv(path)
    assert np.isnan(back.primal[1])


def test_trace_csv_bytes_match_the_row_by_row_writer(tmp_path):
    # the writer formats whole columns; the reference formats each entry
    # through csv.writer, as the trace CSV has always been written
    obj, sub, _ = hankel_problem(8)
    traces = [run(obj, sub, SolverConfig(solvers.ADA, alpha_reg=0.1, max_iters=12)).trace,
              SolverTrace.from_rows([(0, np.nan, -np.inf, 0.0, -0.0, 5e-324, 0),
                                     (1, np.inf, 1e300, 1.2345678901234e-7, 3.0, 1.0, 0)])]
    for tr in traces:
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        w.writerow(("n", "primal", "dual", "feas_residual", "lambda_norm", "step_norm",
                    "best_n"))
        for i in range(len(tr)):
            w.writerow([int(tr.n[i])]
                       + [format(float(getattr(tr, c)[i]), ".12e")
                          for c in ("primal", "dual", "feas_residual", "lambda_norm",
                                    "step_norm")]
                       + [int(tr.best_n[i])])
        tr.write_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == ref.getvalue().encode()


def test_trace_csv_rejects_garbage(tmp_path):
    (tmp_path / "trace.csv").write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        SolverTrace.read_csv(tmp_path / "trace.csv")


# ---------------------------------------------------------------------------
# the paper's claims: bounded multiplier, ada dual rise and rate
# ---------------------------------------------------------------------------

def test_lambda_bound_on_da_runs():
    # with c1 = 3||F|| + 2 sqrt(K) sigma0, c2 = ||F||^2 and
    # p(R) = -R^2/2 + c1 R + c2, every decaying-step update satisfies
    # ||Lambda^{n+1}|| <= max(sqrt(R0^2 + alpha_n p_max), ||Lambda^n||),
    # R0 being the larger root of p and p_max its maximum
    for seed in range(6):
        obj, sub, _ = hankel_problem(20 + seed, rows=10, cols=10)
        cfg = SolverConfig(solvers.DA, max_iters=100, stop_tol=1e-300)
        tr = run(obj, sub, cfg).trace
        c1 = 3.0 * np.linalg.norm(obj.F) + 2.0 * np.sqrt(min(obj.shape)) * obj.sigma0
        c2 = np.linalg.norm(obj.F) ** 2
        r0 = c1 + np.sqrt(c1 * c1 + 2.0 * c2)
        p_max = 0.5 * c1 * c1 + c2
        steps = np.array([cfg.step(n) for n in range(len(tr) - 1)])
        bound = np.maximum(np.sqrt(r0 * r0 + steps * p_max), tr.lambda_norm[:-1])
        assert np.all(tr.lambda_norm[1:] <= bound + 1e-9 * (1.0 + bound))


def test_ada_dual_rise_and_rate():
    # fixed steps alpha: the dual rises by at least ||step||^2 / alpha on
    # every update, and n * (max dual - dual_n) does not increase over the
    # last quartile of the run
    alpha = 0.2
    obj, sub, _ = hankel_problem(10, rows=15, cols=15)
    tr = run(obj, sub, SolverConfig(solvers.ADA, alpha, max_iters=300, stop_tol=1e-300)).trace
    assert np.all(np.diff(tr.dual) - tr.step_norm[1:] ** 2 / alpha >= -1e-9)
    gaps = np.max(tr.dual) - tr.dual
    assert gaps[-1] == pytest.approx(0.0, abs=1e-12)
    scaled = tr.n * gaps
    tail = scaled[-max(2, len(scaled) // 4):]
    assert np.all(np.diff(tail) <= 1e-9 * (1.0 + np.max(scaled)))
