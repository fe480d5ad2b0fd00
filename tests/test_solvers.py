import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slra import solvers
from slra.envelope import RankObjective, ToyObjective
from slra.matops import frobenius_inner
from slra.signals import NoiseSpec, add_noise, gen_cos_sum
from slra.solvers import (
    ScheduleError,
    SolverConfig,
    SolverTrace,
    StepSchedule,
    ada_rate_report,
    check_lambda_bound,
    run,
    validate_schedule,
)
from slra.subspace import HankelSubspace, ZeroSubspace

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
# schedules
# ---------------------------------------------------------------------------

def test_schedule_values():
    assert StepSchedule.harmonic().step(0) == 1.0
    assert StepSchedule.harmonic().step(4) == pytest.approx(0.2)
    assert StepSchedule.fixed(0.3).step(17) == 0.3
    assert StepSchedule.mod_ada(0.1).step(0) == pytest.approx(2.1)
    assert StepSchedule.mod_ada(0.1).step(9) == pytest.approx(0.12)
    assert StepSchedule.sqrt_decay().step(0) == 1.0
    assert StepSchedule.sqrt_decay().step(3) == 0.5
    assert StepSchedule.custom([0.5, 0.25]).step(1) == 0.25


def test_custom_schedule_exhaustion():
    with pytest.raises(ScheduleError):
        StepSchedule.custom([0.5]).step(1)


def test_validate_schedule_harmonic_ok():
    diag = validate_schedule(StepSchedule.harmonic(), 10_000)
    assert diag.ok
    # decays like 1/log N
    assert diag.ratios[-1] < 0.1
    assert diag.ratios[-1] < diag.ratios[len(diag.ratios) // 2]


def test_validate_schedule_fixed_not_ok():
    diag = validate_schedule(StepSchedule.fixed(0.5), 1000)
    assert not diag.ok
    assert_allclose(diag.ratios, 0.5)


def test_validate_schedule_sqrt_ok():
    assert validate_schedule(StepSchedule.sqrt_decay(), 10_000).ok


def test_validate_schedule_rejects_bad_steps():
    with pytest.raises(ScheduleError):
        validate_schedule(StepSchedule.custom([2.0] * 20), 20)


def test_config_couplings():
    with pytest.raises(ScheduleError):
        SolverConfig(solvers.ADA, StepSchedule.fixed(0.2), alpha_reg=0.1)
    with pytest.raises(ScheduleError):
        SolverConfig(solvers.MOD_ADA, StepSchedule.fixed(0.1), alpha_reg=0.1)
    with pytest.raises(ScheduleError):
        SolverConfig(solvers.DA, StepSchedule.fixed(0.1))
    with pytest.raises(ScheduleError):
        SolverConfig(solvers.DA, StepSchedule.harmonic(), alpha_reg=0.1)
    # valid ones construct fine
    SolverConfig.da()
    SolverConfig.ada(0.1)
    SolverConfig.mod_ada(0.01)


# ---------------------------------------------------------------------------
# the scalar toy: exact regression of the multiplier sequence
# ---------------------------------------------------------------------------

def test_toy_da_lambda_sequence():
    res = run(ToyObjective(), ZeroSubspace(1, 1),
              SolverConfig.da(max_iters=5, stop_tol=1e-300))
    assert_allclose(res.trace.lambda_norm[1:], np.abs(TOY_LAMBDAS), atol=1e-12)
    assert res.Lambda_star[0, 0] == pytest.approx(7.0 / 60.0, abs=1e-12)
    assert res.n_iters == 5


def test_toy_da_dual_values_from_conjugate():
    from slra.envelope import toy_conjugate

    res = run(ToyObjective(), ZeroSubspace(1, 1),
              SolverConfig.da(max_iters=5, stop_tol=1e-300))
    lams = [0.0, *TOY_LAMBDAS]
    expected = [-toy_conjugate(-l) for l in lams]
    assert_allclose(res.trace.dual, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# generic run behaviour
# ---------------------------------------------------------------------------

def test_zero_iterations():
    obj, sub, _ = hankel_problem(0)
    res = run(obj, sub, SolverConfig.da(max_iters=0))
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
    res = run(obj, sub, SolverConfig.da(max_iters=50, stop_tol=1e-8))
    # hard-thresholding a rank-2 Hankel keeps it nearly Hankel: fast exit
    assert res.converged
    assert res.n_iters <= 5


def test_zero_data_returns_zero():
    sub = HankelSubspace(5, 5)
    obj = RankObjective(np.zeros((5, 5)), 1.0)
    res = run(obj, sub, SolverConfig.da(max_iters=20, stop_tol=1e-10))
    assert res.converged
    assert_allclose(res.X_star, 0.0)


def test_lambda_stays_in_complement():
    obj, sub, _ = hankel_problem(1)
    for cfg in (SolverConfig.da(max_iters=40, stop_tol=1e-300),
                SolverConfig.ada(0.1, max_iters=40, stop_tol=1e-300),
                SolverConfig.mod_ada(0.1, max_iters=40, stop_tol=1e-300)):
        res = run(obj, sub, cfg)
        lam = res.Lambda_star
        assert np.linalg.norm(sub.project(lam)) <= 1e-10 * (1 + np.linalg.norm(lam))


def test_weak_duality_along_traces():
    obj, sub, _ = hankel_problem(2)
    for cfg in (SolverConfig.da(max_iters=60, stop_tol=1e-300),
                SolverConfig.ada(0.2, max_iters=60, stop_tol=1e-300),
                SolverConfig.mod_ada(0.2, max_iters=60, stop_tol=1e-300)):
        res = run(obj, sub, cfg)
        assert np.max(res.trace.dual) <= np.min(res.trace.primal) + 1e-8


def test_ada_dual_monotone_increase_inequality():
    obj, sub, _ = hankel_problem(3, rows=15, cols=15)
    alpha = 0.15
    res = run(obj, sub, SolverConfig.ada(alpha, max_iters=150, stop_tol=1e-300))
    inc = np.diff(res.trace.dual)
    req = res.trace.step_norm[1:] ** 2 / alpha
    assert np.all(inc - req >= -1e-9)


def test_ada_step_square_sums_plateau():
    obj, sub, _ = hankel_problem(4, rows=15, cols=15)
    res = run(obj, sub, SolverConfig.ada(0.2, max_iters=400, stop_tol=1e-300))
    sq = res.trace.step_norm**2
    total = np.sum(sq)
    assert np.sum(sq[: len(sq) // 2]) >= 0.95 * total  # summable in practice


def test_da_best_iterate_duals_monotone():
    obj, sub, _ = hankel_problem(5)
    res = run(obj, sub, SolverConfig.da(max_iters=80, stop_tol=1e-300))
    best_duals = res.trace.dual[res.trace.best_n]
    assert np.all(np.diff(best_duals) >= -1e-12)
    res.trace.check_invariants()


def test_ada_fixed_point_and_kkt():
    obj, sub, _ = hankel_problem(6, rows=12, cols=12)
    alpha = 0.3
    res = run(obj, sub, SolverConfig.ada(alpha, max_iters=3000, stop_tol=1e-9))
    assert res.converged
    # X* is the projected tilted minimizer and nearly feasible
    x_direct = obj.tilted_minimizer(res.Lambda_star, alpha)
    assert np.linalg.norm(x_direct - sub.project(x_direct)) <= 1e-8 * (
        1 + np.linalg.norm(x_direct)
    )
    assert np.linalg.norm(sub.project(x_direct) - res.X_star) <= 1e-6


def test_mod_ada_matches_ada_limit_quality():
    obj, sub, _ = hankel_problem(7, rows=15, cols=15)
    alpha = 0.1
    r1 = run(obj, sub, SolverConfig.ada(alpha, max_iters=4000, stop_tol=1e-8))
    r2 = run(obj, sub, SolverConfig.mod_ada(alpha, max_iters=4000, stop_tol=1e-8))
    v1 = obj.feasible_value(r1.X_star, alpha)
    v2 = obj.feasible_value(r2.X_star, alpha)
    assert v2 == pytest.approx(v1, rel=1e-5)


def test_degenerate_status_surfaced():
    obj = RankObjective(np.diag([1.0, 3.0]), 1.0)  # singular value == sigma0
    res = run(obj, ZeroSubspace(2, 2), SolverConfig.da(max_iters=3, stop_tol=1e-300))
    assert res.degenerate
    assert res.status == "degenerate_warning"


def test_numerical_failure_carries_priced_rows():
    obj, sub, _ = hankel_problem(11, rows=8, cols=8)

    class FailingObjective:
        shape = obj.shape
        feasible_value = staticmethod(obj.feasible_value)
        calls = 0

        def update(self, lam, alpha):
            self.calls += 1
            if self.calls == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
            return obj.update(lam, alpha)

    cfg = SolverConfig.da(max_iters=10, stop_tol=1e-300)
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


def test_shape_mismatch_rejected():
    obj = RankObjective(np.ones((3, 3)), 1.0)
    with pytest.raises(ValueError):
        run(obj, HankelSubspace(2, 2), SolverConfig.da(max_iters=1))


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

def test_trace_csv_round_trip():
    obj, sub, _ = hankel_problem(8)
    res = run(obj, sub, SolverConfig.da(max_iters=25, stop_tol=1e-300))
    buf = io.StringIO()
    res.trace.write_csv(buf)
    buf.seek(0)
    back = SolverTrace.read_csv(buf)
    for col in ("n", "primal", "dual", "feas_residual", "lambda_norm",
                "step_norm", "best_n"):
        a, b = getattr(res.trace, col), getattr(back, col)
        assert_allclose(b, a, rtol=1e-11)
    back.check_invariants()


def test_trace_csv_significant_digits():
    tr = SolverTrace(
        n=np.array([0, 1]),
        primal=np.array([1.2345678901234e2, np.nan]),
        dual=np.array([-1.0, 2.0]),
        feas_residual=np.array([0.0, 3.0]),
        lambda_norm=np.array([0.0, 1.0]),
        step_norm=np.array([0.0, 1.0]),
        best_n=np.array([0, 1]),
    )
    text = tr.to_csv_string()
    assert text.splitlines()[0] == "n,primal,dual,feas_residual,lambda_norm,step_norm,best_n"
    assert "1.234567890123e+02" in text
    back = SolverTrace.read_csv(io.StringIO(text))
    assert np.isnan(back.primal[1])


def test_trace_csv_rejects_garbage():
    with pytest.raises(ValueError):
        SolverTrace.read_csv(io.StringIO("a,b\n1,2\n"))


# ---------------------------------------------------------------------------
# bound and rate reports
# ---------------------------------------------------------------------------

def test_lambda_bound_constant_zero_trace():
    obj, sub, _ = hankel_problem(9)
    res = run(obj, RankObjectiveZeroSub := ZeroSubspace(*obj.shape),
              SolverConfig.da(max_iters=0))
    rep = check_lambda_bound(res.trace, obj.F, obj.sigma0)
    assert rep.ok


def test_lambda_bound_on_da_runs():
    for seed in range(6):
        obj, sub, _ = hankel_problem(20 + seed, rows=10, cols=10)
        res = run(obj, sub, SolverConfig.da(max_iters=100, stop_tol=1e-300))
        rep = check_lambda_bound(res.trace, obj.F, obj.sigma0)
        assert rep.ok
        assert rep.c1 == pytest.approx(
            3 * np.linalg.norm(obj.F) + 2 * np.sqrt(10) * obj.sigma0
        )
        assert rep.r0 == pytest.approx(rep.c1 + np.sqrt(rep.c1**2 + 2 * rep.c2))


def test_ada_rate_report_monotone_and_tail():
    obj, sub, _ = hankel_problem(10, rows=15, cols=15)
    res = run(obj, sub, SolverConfig.ada(0.2, max_iters=300, stop_tol=1e-300))
    rep = ada_rate_report(res.trace, 0.2)
    assert rep.monotone_ok
    assert rep.tail_ok
    assert rep.gaps[-1] == pytest.approx(0.0, abs=1e-12)


def test_ada_rate_report_constant_trace():
    n = 12
    tr = SolverTrace(
        n=np.arange(n),
        primal=np.full(n, 5.0),
        dual=np.full(n, 1.0),
        feas_residual=np.zeros(n),
        lambda_norm=np.zeros(n),
        step_norm=np.zeros(n),
        best_n=np.zeros(n, dtype=int),
    )
    rep = ada_rate_report(tr, 0.1)
    assert rep.monotone_ok and rep.tail_ok
    assert rep.min_increment_slack == pytest.approx(0.0)
