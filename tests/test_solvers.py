import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from doubles import (
    ToyObjective,
    ZeroSubspace,
    assert_primal_bound_holds,
    assert_same_run,
    block_hankel_labels,
    four_tones,
    never_truncate,
    toy_conjugate,
)
from slra import envelope, harness, solvers
from slra.envelope import PrimalUpdate, RankObjective
from slra.harness import ExperimentConfig, run_freqest_study
from slra.signals import (
    add_noise,
    gen_cos_sum,
    sigma0_heuristic,
    signal_to_hankel,
    snr_to_sigma,
)
from slra.solvers import (
    SolverConfig,
    SolverTrace,
    run,
)
from slra.subspace import HankelSubspace, LabelSubspace

TOY_LAMBDAS = (1.0, 1.0 / 2.0, 1.0 / 6.0, -1.0 / 12.0, 7.0 / 60.0)


def hankel_problem(seed, rows=20, cols=20, sigma0=None, noise=0.1):
    rng = np.random.default_rng(seed)
    sub = HankelSubspace(rows, cols)
    f = gen_cos_sum(rng, n_samples=rows + cols - 1)
    h = sub.from_vector(f)
    F = add_noise(h, noise, rng=rng)
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
    # 1/sqrt(n + 1) <= 1 for n >= 0: no step needs a cap at 1
    sqrt_cfg = SolverConfig(solvers.DA, sqrt_steps=True)
    for n in range(2001):
        assert sqrt_cfg.step(n) == min(1.0, 1.0 / np.sqrt(n + 1))


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
                        (solvers.DA, dict(stop_tol=-1.0)),
                        (solvers.DA, dict(stop_tol=np.nan)),
                        (solvers.DA, dict(stop_tol=np.inf))):
        with pytest.raises(ValueError):
            SolverConfig(variant, **kw)
    # valid ones construct fine
    SolverConfig(solvers.DA)
    SolverConfig(solvers.DA, sqrt_steps=True)
    SolverConfig(solvers.DA, stop_tol=0.0)
    SolverConfig(solvers.ADA, 0.1)
    SolverConfig(solvers.MOD_ADA, 0.01)


# ---------------------------------------------------------------------------
# the scalar toy: exact regression of the multiplier sequence
# ---------------------------------------------------------------------------

def test_toy_da_lambda_sequence():
    res = run(ToyObjective(), ZeroSubspace(1, 1),
              SolverConfig(solvers.DA, max_iters=5, stop_tol=0.0))
    assert_allclose(res.trace.lambda_norm[1:], np.abs(TOY_LAMBDAS), atol=1e-12)
    assert res.Lambda_star[0, 0] == pytest.approx(7.0 / 60.0, abs=1e-12)
    assert res.n_iters == 5


def test_toy_da_dual_values_from_conjugate():
    res = run(ToyObjective(), ZeroSubspace(1, 1),
              SolverConfig(solvers.DA, max_iters=5, stop_tol=0.0))
    lams = [0.0, *TOY_LAMBDAS]
    expected = [-toy_conjugate(-l) for l in lams]
    assert_allclose(res.trace.dual, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# generic run behaviour
# ---------------------------------------------------------------------------

class FailingAtRow:
    """``obj`` whose SVD fails at row ``row``."""

    def __init__(self, obj, row):
        self.obj, self.row, self.calls = obj, row, 0
        self.shape = obj.shape
        self.feasible_value, self.primal_bound = obj.feasible_value, obj.primal_bound
        self.envelope_value, self.augmented_dual = obj.envelope_value, obj.augmented_dual

    def update(self, lam, alpha, warm, dlam):
        self.calls += 1
        if self.calls == self.row + 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return self.obj.update(lam, alpha, warm, dlam)


class ScriptedObjective:
    """1x1 objective whose rows have scripted duals, and a NaN minimizer at
    row ``nan_row``."""

    shape = (1, 1)

    def __init__(self, duals, nan_row=None):
        self.duals, self.nan_row, self.row = duals, nan_row, 0

    def feasible_value(self, x, alpha=0.0):
        return 0.0

    def primal_bound(self, upd, px, resid, alpha=0.0):
        return 0.0

    def update(self, lam, alpha, warm, dlam):
        k, self.row = self.row, self.row + 1
        x = np.full((1, 1), np.nan if k == self.nan_row else 1.0)
        return PrimalUpdate(x, np.ones(1), 1.0, self.duals[k], False)


@pytest.mark.parametrize("duals, best", [
    ([1.0, 2.0, 2.0 * (1 + 1e-14), 1.9], [0, 1, 2, 2]),  # a rounding tie: the later row
    ([1.0, 2.0, 2.0 - 1e-9], [0, 1, 1]),                 # a real drop: the earlier one
])
def test_da_best_row_is_latest_within_tolerance(duals, best):
    res = run(ScriptedObjective(duals), ZeroSubspace(1, 1),
              SolverConfig(solvers.DA, max_iters=len(duals) - 1, stop_tol=0.0))
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
                        np.zeros(n), np.zeros(n), np.array(best), np.zeros(n))
    with pytest.raises(AssertionError):
        trace.check_invariants()


def test_nonfinite_multiplier_carries_priced_rows():
    obj = ScriptedObjective([1.0, 2.0, 3.0, 4.0, 5.0], nan_row=2)
    with pytest.raises(solvers.SolverNumericalError,
                       match="non-finite multiplier at iteration 3") as exc:
        run(obj, ZeroSubspace(1, 1), SolverConfig(solvers.DA, max_iters=4, stop_tol=0.0))
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
    for cfg in (SolverConfig(solvers.DA, max_iters=40, stop_tol=0.0),
                SolverConfig(solvers.ADA, 0.1, max_iters=40, stop_tol=0.0),
                SolverConfig(solvers.MOD_ADA, 0.1, max_iters=40, stop_tol=0.0)):
        res = run(obj, sub, cfg)
        lam = res.Lambda_star
        assert np.linalg.norm(sub.project(lam)) <= 1e-10 * (1 + np.linalg.norm(lam))


def test_weak_duality_along_traces():
    obj, sub, _ = hankel_problem(2)
    for cfg in (SolverConfig(solvers.DA, max_iters=60, stop_tol=0.0),
                SolverConfig(solvers.ADA, 0.2, max_iters=60, stop_tol=0.0),
                SolverConfig(solvers.MOD_ADA, 0.2, max_iters=60, stop_tol=0.0)):
        res = run(obj, sub, cfg)
        assert np.max(res.trace.dual) <= np.min(res.trace.primal) + 1e-8


@pytest.mark.parametrize("variant, alpha, calls", [
    (solvers.DA, 0.0, 0),         # the plain dual from the singular values
    (solvers.ADA, 0.1, 30),       # the Lagrangian at X^k, from row 1 on
    (solvers.MOD_ADA, 0.1, 31),   # the augmented dual at every row
], ids=["da", "ada", "mod_ada"])
def test_envelope_is_priced_only_where_the_dual_reads_it(variant, alpha, calls, monkeypatch):
    obj, sub, _ = hankel_problem(11, rows=21, cols=20, sigma0=0.8)
    priced = []
    envelope_value = RankObjective.envelope_value

    def counted(self, x, svals):
        priced.append(x)
        return envelope_value(self, x, svals)

    monkeypatch.setattr(RankObjective, "envelope_value", counted)
    # no primal rows, since feasible_value prices its point by envelope_value too
    res = run(obj, sub, SolverConfig(variant, alpha, max_iters=30, stop_tol=0.0,
                                     primal_rows="none"))
    assert len(res.trace) == 31
    assert len(priced) == calls


@pytest.mark.parametrize("make", [
    lambda **kw: SolverConfig(solvers.DA, **kw),
    lambda **kw: SolverConfig(solvers.ADA, 0.1, **kw),
    lambda **kw: SolverConfig(solvers.MOD_ADA, 0.1, **kw),
], ids=["da", "ada", "mod_ada"])
def test_primal_tracking_changes_only_the_primal_column(make):
    # one cosine-sum run serves the curves, distances and singular values
    # only because pricing primal values leaves everything else untouched;
    # ``doubling`` prices rows 0, 2^j and the last, and bounds every row,
    # which is what the exact values of ``all`` on the same rows check
    obj, sub, _ = hankel_problem(11, rows=21, cols=20, sigma0=0.8)
    resid = run(obj, sub, make(max_iters=40, stop_tol=0.0)).trace.feas_residual
    # just above the least residual of rows 1-30: the run converges at the
    # first row that reaches it
    converge_tol = np.nextafter(resid[1:31].min(), np.inf)

    def runs(stop_tol, fail_at=None):
        """The run under ``all``, ``doubling`` and ``none``, or the error it raised."""
        results = []
        for rows in solvers.PRIMAL_ROWS:
            objective = obj if fail_at is None else FailingAtRow(obj, fail_at)
            try:
                results.append(run(objective, sub, make(max_iters=40, stop_tol=stop_tol,
                                                        primal_rows=rows)))
            except solvers.SolverNumericalError as exc:
                results.append(exc)
        return results

    converged = set()
    for stop_tol, fail_at in ((0.0, None), (converge_tol, None), (0.0, 7)):
        tracked, doubling, bare = runs(stop_tol, fail_at)
        assert np.all(np.isfinite(tracked.trace.primal)) and np.all(np.isnan(bare.trace.primal))
        assert np.all(np.isnan(tracked.trace.primal_bound))
        assert np.all(np.isnan(bare.trace.primal_bound))
        for other in (doubling, bare):
            for col in ("dual", "feas_residual", "lambda_norm", "step_norm", "best_n"):
                assert_array_equal(getattr(tracked.trace, col), getattr(other.trace, col))
        assert_primal_bound_holds(doubling.trace, tracked.trace)
        n_rows = len(tracked.trace)
        priced = {0} | {2**j for j in range(n_rows.bit_length()) if 2**j < n_rows}
        if isinstance(tracked, solvers.SolverNumericalError):
            # the failure comes at row 7, before that row is recorded, so
            # no row was known to be the last: rows 0, 1, 2 and 4 carry
            # exact values, rows 3, 5 and 6 only bounds
            assert all(isinstance(r, solvers.SolverNumericalError) for r in (doubling, bare))
            assert n_rows == 7 and priced == {0, 1, 2, 4}
        else:
            assert n_rows - 1 not in priced  # so the last-row rule shows
            priced.add(n_rows - 1)
            converged.add(tracked.converged)
            for other in (doubling, bare):
                assert_array_equal(tracked.X_star, other.X_star)
                assert_array_equal(tracked.Lambda_star, other.Lambda_star)
                assert ((tracked.n_iters, tracked.full_svds, tracked.passes)
                        == (other.n_iters, other.full_svds, other.passes))
        assert set(np.flatnonzero(np.isfinite(doubling.trace.primal))) == priced
        rows = sorted(priced)
        assert_array_equal(doubling.trace.primal[rows], tracked.trace.primal[rows])
    assert converged == {False, True}  # one run hit max_iters, one converged


@pytest.mark.parametrize("variant", solvers.VARIANTS)
def test_primal_bound_is_priced_only_where_rows_go_unpriced(variant, monkeypatch):
    # ``doubling`` bounds every row after row 0, which takes the exact
    # value; ``all`` prices every row and ``none`` no row, so neither
    # bounds any
    obj, sub, _ = hankel_problem(4, rows=21, cols=20, sigma0=0.8)
    calls = []
    bound = RankObjective.primal_bound
    monkeypatch.setattr(RankObjective, "primal_bound",
                        lambda self, *a: calls.append(a) or bound(self, *a))
    alpha = 0.0 if variant == solvers.DA else 0.1
    for rows, expected in (("all", 0), ("none", 0), ("doubling", 30)):
        calls.clear()
        res = run(obj, sub, SolverConfig(variant, alpha, max_iters=30, stop_tol=0.0,
                                         primal_rows=rows))
        assert len(res.trace) == 31 and len(calls) == expected
        assert np.all(np.isfinite(res.trace.primal_bound) == (rows == "doubling"))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**31 - 1), st.integers(8, 30), st.booleans(),
       st.sampled_from(solvers.VARIANTS), st.floats(0.01, 0.5))
def test_primal_bound_holds_on_every_row(seed, rows, complex_data, variant, noise):
    # four damped tones on a rows x (rows - 1) Hankel matrix, their real
    # part (eight exponentials) when real, sigma0 from the gap at 4
    rng = np.random.default_rng(seed)
    tones = -rng.uniform(0.0, 0.01, 4) + 1j * rng.uniform(0.1, 3.0, 4)
    f = np.exp(np.multiply.outer(np.arange(2 * rows - 2), tones)) @ np.exp(
        2j * np.pi * rng.uniform(size=4))
    f = f + noise * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size))
    # the bound of each row of a ``doubling`` run against the exact value
    # that the same run under ``all`` prices on that row
    F, sub = signal_to_hankel(f if complex_data else f.real)
    obj = RankObjective(F, sigma0_heuristic(F, 4))
    bounded, priced = (
        run(obj, sub, SolverConfig(variant, 0.0 if variant == solvers.DA else 0.1,
                                   max_iters=60, primal_rows=rows))
        for rows in ("doubling", "all"))
    assert_primal_bound_holds(bounded.trace, priced.trace)


def test_ada_dual_monotone_increase_inequality():
    obj, sub, _ = hankel_problem(3, rows=15, cols=15)
    alpha = 0.15
    res = run(obj, sub, SolverConfig(solvers.ADA, alpha, max_iters=150, stop_tol=0.0))
    inc = np.diff(res.trace.dual)
    req = res.trace.step_norm[1:] ** 2 / alpha
    assert np.all(inc - req >= -1e-9)


def test_ada_step_square_sums_plateau():
    obj, sub, _ = hankel_problem(4, rows=15, cols=15)
    res = run(obj, sub, SolverConfig(solvers.ADA, 0.2, max_iters=400, stop_tol=0.0))
    sq = res.trace.step_norm**2
    total = np.sum(sq)
    assert np.sum(sq[: len(sq) // 2]) >= 0.95 * total  # summable in practice


def test_da_best_iterate_duals_monotone():
    obj, sub, _ = hankel_problem(5)
    res = run(obj, sub, SolverConfig(solvers.DA, max_iters=80, stop_tol=0.0))
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
    res = run(obj, ZeroSubspace(2, 2), SolverConfig(solvers.DA, max_iters=3, stop_tol=0.0))
    assert res.degenerate
    assert res.status == "degenerate_warning"


def test_numerical_failure_carries_priced_rows():
    obj, sub, _ = hankel_problem(11, rows=8, cols=8)

    cfg = SolverConfig(solvers.DA, max_iters=10, stop_tol=0.0)
    with pytest.raises(solvers.SolverNumericalError, match="row 2") as exc:
        run(FailingAtRow(obj, 2), sub, cfg)
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


@pytest.mark.parametrize("snr_dbw", [0.0, 15.0, 20.0])
def test_freqest_trial_matches_full_svd_path(monkeypatch, snr_dbw):
    study, obj, fast = _freqest_trial_run(monkeypatch, snr_dbw)
    never_truncate(monkeypatch)
    full_study, _, full = _freqest_trial_run(monkeypatch, snr_dbw)

    truncated = fast.n_iters + 1 - fast.full_svds
    # row 0 has no warm start; every later row is truncated, at 0 dBW too
    assert fast.full_svds == 1
    # the secant start certifies most rows after one pass (1.44 and 1.55
    # passes per truncated row at 20 and 15 dBW, power passes included);
    # at 0 dBW each pass cuts the residual only a few fold (2.37)
    assert study["passes_per_truncated_row"] == fast.passes / truncated
    assert fast.passes / truncated <= (1.6 if snr_dbw > 0 else 2.5)
    assert study["levels"] == [{"snr_dbw": snr_dbw, **{
        key: study[key] for key in ("full_svd_fraction", "passes_per_truncated_row")}}]
    assert full_study["full_svd_fraction"] == 1.0
    assert full.full_svds == full.n_iters + 1 and full.passes == 0
    assert_same_run(fast, full)
    # the residual ends near 1e-6, so its own rounding is about 5e-7 of it
    assert_allclose(fast.trace.feas_residual, full.trace.feas_residual,
                    rtol=0, atol=1e-9 * np.linalg.norm(obj.F))


def _solve_sized_problem(channels):
    """(F, sub): a noisy four-tone signal as ``slra solve`` builds it,
    64x63 Hankel, or with 3 channels of ``four_tones``, 33x96 block Hankel."""
    if channels:
        sub = LabelSubspace(block_hankel_labels(33, 32, channels))
        return sub.from_vector(four_tones(64, 1, channels).ravel()), sub
    rng = np.random.default_rng(11)
    tones = -rng.uniform(0.0, 0.005, 4) + 1j * (0.3 + 0.7 * np.arange(4))
    amps = np.exp(2j * np.pi * rng.uniform(size=4))
    f = np.exp(np.multiply.outer(np.arange(126), tones)) @ amps
    return signal_to_hankel(add_noise(f, snr_to_sigma(f, 15.0), rng=rng))


@pytest.mark.parametrize("channels, variant",
                         [(channels, v) for channels in (None, 3) for v in solvers.VARIANTS],
                         ids=[*solvers.VARIANTS, *(f"block-{v}" for v in solvers.VARIANTS)])
def test_solve_sized_run_matches_full_svd_path(monkeypatch, channels, variant):
    # sigma0 from the gap at 4, so a budget of 6.3 passes per row at 64x63
    # and 5.5 at 33x96, where da, ada and mod_ada take 7, 15 and 3 full SVDs
    F, sub = _solve_sized_problem(channels)
    assert F.shape == ((33, 96) if channels else (64, 63))
    obj = RankObjective(F, sigma0_heuristic(F, 4))
    cfg = SolverConfig(variant, 0.0 if variant == solvers.DA else 0.1, max_iters=100)
    fast = run(obj, sub, cfg)
    never_truncate(monkeypatch)
    full = run(obj, sub, cfg)
    assert fast.full_svds < (fast.n_iters + 1) / 2 and fast.passes > 0
    assert full.full_svds == full.n_iters + 1
    assert_same_run(fast, full)


@pytest.mark.parametrize("variant", [solvers.DA, solvers.MOD_ADA])
def test_cosine_sum_run_matches_full_svd_path(monkeypatch, variant):
    # a converge trial's problem: 101x100 real Hankel data, sigma0 = 0.8 and
    # 100 iterations; all but a few rows are truncated
    obj, sub, _ = hankel_problem(1, rows=101, cols=100, sigma0=0.8)
    cfg = harness._method_config(variant, 0.1, 100)
    fast = run(obj, sub, cfg)
    never_truncate(monkeypatch)
    full = run(obj, sub, cfg)
    assert fast.n_iters == 100 and fast.full_svds < 5 and fast.passes > 0
    assert full.full_svds == full.n_iters + 1
    assert_same_run(fast, full)


def _tones_run(n, seed, monkeypatch, fail_row=None):
    """A 60-row ``da`` run with the residual stop off on ``four_tones(n, seed)``,
    sigma0 from the gap at 4, and one (row, need it starts from, need it
    forecasts or None, accepted) per truncated attempt; the attempt on
    ``fail_row`` runs but is reported as failed."""
    rows, attempts = [], []
    update, attempt = RankObjective.update, envelope._truncated_svd

    def counting(self, *args):
        rows.append(len(rows))
        return update(self, *args)

    def logged(g, warm, *args):
        passes, part = attempt(g, warm, *args)
        row, forecast = rows[-1], None if part is None else part[5]
        if row == fail_row:
            part = None
        attempts.append((row, warm.need, forecast, part is not None))
        return passes, part

    monkeypatch.setattr(RankObjective, "update", counting)
    monkeypatch.setattr(envelope, "_truncated_svd", logged)
    F, sub = signal_to_hankel(four_tones(n, seed))
    res = run(RankObjective(F, sigma0_heuristic(F, 4)), sub,
              SolverConfig(solvers.DA, max_iters=60, stop_tol=0.0))
    return res, attempts


def test_attempts_back_off_by_powers_of_two_after_each_fallback(monkeypatch):
    # the smallest kept value sits near the cutoff here, so every attempt
    # falls back; after the f-th fallback the next comes 2^f rows on
    res, attempts = _tones_run(96, 5, monkeypatch)
    assert [(row, accepted) for row, _, _, accepted in attempts] == \
        [(1, False), (3, False), (7, False), (15, False), (31, False)]
    assert res.passes == 10 and res.full_svds == 61


def test_attempt_after_a_fallback_starts_from_the_last_accepted_need(monkeypatch):
    # the attempt on row 3 certifies but is reported failed: row 4 takes the
    # full SVD, and row 5 tries again from row 2's need, not from the one
    # that row 3 forecast
    res, attempts = _tones_run(96, 1, monkeypatch, fail_row=3)
    (row_a, _, need, accepted), (row_f, _, forecast, failed), (row_b, start, _, _) = attempts[1:4]
    assert (row_a, row_f, row_b) == (2, 3, 5) and accepted and not failed
    assert start == need > 1 and forecast != need
    assert res.full_svds == 3  # rows 0, 3 and 4


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
        harness._cossum_trial((1, 100, c.alpha, c.sigma0))
        rows = 3 * 100
    else:
        snr_dbw = float(trial.split()[1])
        rows = harness._freqest_trial((0, snr_dbw, harness.FREQEST_MAX_ITERS))["n_iters"]
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
              SolverConfig(solvers.DA, max_iters=50, stop_tol=0.0))
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
        primal_bound = staticmethod(obj.primal_bound)
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
    res = run(obj, sub, SolverConfig(solvers.DA, max_iters=25, stop_tol=0.0))
    res.trace.write_csv(tmp_path / "trace.csv")
    back = SolverTrace.read_csv(tmp_path / "trace.csv")
    for col in ("n", "primal", "dual", "feas_residual", "lambda_norm",
                "step_norm", "best_n", "primal_bound"):
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
        primal_bound=np.array([1.2345678901234e2, 2.5]),
    )
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == ("n,primal,dual,feas_residual,lambda_norm,step_norm,best_n,"
                                    "primal_bound")
    assert "1.234567890123e+02" in text
    back = SolverTrace.read_csv(path)
    assert np.isnan(back.primal[1])
    assert back.primal_bound[1] == 2.5


def test_trace_csv_bytes_match_the_row_by_row_writer(tmp_path):
    # the writer formats whole columns; the reference formats each entry
    # through csv.writer, as the trace CSV has always been written
    obj, sub, _ = hankel_problem(8)
    traces = [run(obj, sub, SolverConfig(solvers.ADA, alpha_reg=0.1, max_iters=12)).trace,
              SolverTrace.from_rows([(0, np.nan, -np.inf, 0.0, -0.0, 5e-324, 0, np.nan),
                                     (1, np.inf, 1e300, 1.2345678901234e-7, 3.0, 1.0, 0,
                                      -1e-300)])]
    for tr in traces:
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        w.writerow(("n", "primal", "dual", "feas_residual", "lambda_norm", "step_norm",
                    "best_n", "primal_bound"))
        for i in range(len(tr)):
            w.writerow([int(tr.n[i])]
                       + [format(float(getattr(tr, c)[i]), ".12e")
                          for c in ("primal", "dual", "feas_residual", "lambda_norm",
                                    "step_norm")]
                       + [int(tr.best_n[i]), format(float(tr.primal_bound[i]), ".12e")])
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
        cfg = SolverConfig(solvers.DA, max_iters=100, stop_tol=0.0)
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
    tr = run(obj, sub, SolverConfig(solvers.ADA, alpha, max_iters=300, stop_tol=0.0)).trace
    assert np.all(np.diff(tr.dual) - tr.step_norm[1:] ** 2 / alpha >= -1e-9)
    gaps = np.max(tr.dual) - tr.dual
    assert gaps[-1] == pytest.approx(0.0, abs=1e-12)
    scaled = tr.n * gaps
    tail = scaled[-max(2, len(scaled) // 4):]
    assert np.all(np.diff(tail) <= 1e-9 * (1.0 + np.max(scaled)))
