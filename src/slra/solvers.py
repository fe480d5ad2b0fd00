"""Dual ascent iterations for subspace-constrained envelope minimization.

Three variants share one loop, and each fixes its own step rule (see
:class:`SolverConfig`):

* ``da``      -- hard-threshold primal update, decaying steps 1/(n+1)
                 (or min(1, 1/sqrt(n+1))), best-iterate tracking on the
                 dual values.
* ``ada``     -- augmented primal update with weight alpha, fixed step
                 alpha; the whole sequence converges.
* ``mod_ada`` -- augmented primal update with steps 2/(n+1)^2 + alpha that
                 decay to alpha, taking large steps early on.

The multiplier always stays in the orthogonal complement of the constraint
subspace.  Each trace row costs one SVD of F - Lambda/2, truncated or full
(plus one values-only SVD per row when feasible primal values are
tracked): the objective may price a row from a warm-started truncated SVD,
one attempt per row, whose block subspace iteration starts from a secant
prediction of the row's singular subspace out of the two previous rows
(or else from the previous row's block) and spends at most min(M, N) / p
passes on a block of p columns, about the cost of one full SVD, and falls
back to the full SVD whenever it cannot certify the truncation (see
:meth:`slra.envelope.RankObjective.update`).  The certificate carries a
bound on the row's (k+1)-th singular value from row to row by Weyl's
inequality, which needs a bound on how far F - Lambda/2 moved; the run
knows the multiplier's step as step * ||X - P(X)|| and hands the
objective that figure plus a rounding margin, so no row sweeps the
difference of two matrices for it.

Dual values recorded in the trace: for ``da`` and ``mod_ada`` the dual is
the conjugate-based dual function at Lambda^n.  For ``ada`` the recorded
dual is the Lagrangian of the partially augmented objective (quadratic
penalty restricted to the subspace component) evaluated at the pair
(X^n, Lambda^n); by the optimality of X^n for the updated multiplier this
equals the partially augmented dual function, the quantity that increases
by at least ``alpha^-1 * ||step||^2`` per iteration.  Evaluating the fully
augmented conjugate instead would lose that guarantee (its increments are
only bounded below with an extra factor 1/2).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .matops import frobenius_inner
from .subspace import SubspaceOp

DA = "da"
ADA = "ada"
MOD_ADA = "mod_ada"
VARIANTS = (DA, ADA, MOD_ADA)

#: multiplier must stay in the complement up to this relative tolerance
_LAMBDA_SUBSPACE_TOL = 1e-10

#: a row becomes the best iterate when its dual is within this share of
#: max(1, |running maximum|) of the running maximum, so that the choice
#: does not hang on rounding once the dual flattens
_BEST_DUAL_RTOL = 1e-12


def _best_dual_tol(top):
    return _BEST_DUAL_RTOL * np.maximum(1.0, np.abs(top))


class SolverNumericalError(RuntimeError):
    """Numerical failure inside the iteration; carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    """Variant and stopping parameters for :func:`run`; the variant fixes
    the step alpha_n that multiplies the n-th multiplier update.

    ``da`` takes decaying steps 1/(n+1), or min(1, 1/sqrt(n+1)) with
    ``sqrt_steps``, and needs ``alpha_reg == 0``.  ``ada`` takes the fixed
    step ``alpha_reg``, its augmentation weight, and ``mod_ada`` the steps
    2/(n+1)^2 + ``alpha_reg``, which decay to it; both need
    ``alpha_reg > 0``.
    """

    variant: str
    alpha_reg: float = 0.0
    max_iters: int = 1000
    stop_tol: float = 1e-6
    track_primal: bool = True
    sqrt_steps: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if self.variant == DA:
            if self.alpha_reg != 0:
                raise ValueError("da requires alpha_reg == 0")
        elif not self.alpha_reg > 0:
            raise ValueError(f"{self.variant} requires alpha_reg > 0")
        if self.sqrt_steps and self.variant != DA:
            raise ValueError("sqrt_steps applies to da only")

    def step(self, n: int) -> float:
        """Step alpha_n of the n-th multiplier update (n >= 0)."""
        if self.variant == ADA:
            return self.alpha_reg
        if self.variant == MOD_ADA:
            return 2.0 / (n + 1) ** 2 + self.alpha_reg
        if self.sqrt_steps:
            return min(1.0, 1.0 / np.sqrt(n + 1))
        return 1.0 / (n + 1)


_TRACE_COLUMNS = ("n", "primal", "dual", "feas_residual", "lambda_norm", "step_norm", "best_n")


@dataclass
class SolverTrace:
    """Per-iteration record; row n describes the state after n updates."""

    n: np.ndarray
    primal: np.ndarray
    dual: np.ndarray
    feas_residual: np.ndarray
    lambda_norm: np.ndarray
    step_norm: np.ndarray
    best_n: np.ndarray

    def __len__(self):
        return len(self.n)

    def write_csv(self, path_or_file):
        """One row per iteration, header included, >= 12 significant digits."""
        own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
        fh = open(path_or_file, "w", newline="") if own else path_or_file
        try:
            w = csv.writer(fh)
            w.writerow(_TRACE_COLUMNS)
            for i in range(len(self)):
                w.writerow(
                    [int(self.n[i])]
                    + [
                        format(float(getattr(self, c)[i]), ".12e")
                        for c in _TRACE_COLUMNS[1:-1]
                    ]
                    + [int(self.best_n[i])]
                )
        finally:
            if own:
                fh.close()

    @classmethod
    def from_rows(cls, rows):
        """Trace from rows ordered as the CSV columns."""
        data = np.array(rows, dtype=float).reshape(-1, len(_TRACE_COLUMNS))
        cols = dict(zip(_TRACE_COLUMNS, data.T))
        cols["n"] = cols["n"].astype(int)
        cols["best_n"] = cols["best_n"].astype(int)
        return cls(**cols)

    @classmethod
    def read_csv(cls, path_or_file):
        own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
        fh = open(path_or_file, newline="") if own else path_or_file
        try:
            rows = list(csv.reader(fh))
        finally:
            if own:
                fh.close()
        if not rows or tuple(rows[0]) != _TRACE_COLUMNS:
            raise ValueError("not a solver trace CSV (bad header)")
        return cls.from_rows([[float(v) for v in r] for r in rows[1:]])

    def check_invariants(self):
        """best_n[k] must be the latest row up to k whose dual lies within
        the best-iterate tolerance of the maximal dual so far, and
        therefore non-decreasing.

        The CSV keeps 13 significant digits, which can move a difference
        of duals by as much as the tolerance itself, so the check allows
        that much on each side: best_n[k] may lie up to twice the
        tolerance below the maximum, and no later row may reach it."""
        top = np.fmax.accumulate(self.dual)
        tol = _best_dual_tol(top)
        for k in range(len(self)):
            b = int(self.best_n[k])
            if not (0 <= b <= k):
                raise AssertionError(f"best_n[{k}] = {b} out of range")
            if not self.dual[b] >= top[k] - 2.0 * tol[k]:
                raise AssertionError(f"best_n[{k}] is not within tolerance of the maximal dual")
            if np.any(self.dual[b + 1:k + 1] >= top[k]):
                raise AssertionError(f"best_n[{k}] is not the latest row within tolerance")
        if np.any(np.diff(self.best_n) < 0):
            raise AssertionError("best_n decreases")


@dataclass
class SolverResult:
    """Final primal (projected onto the subspace), final multiplier, trace
    and termination status.  ``full_svds`` counts the trace rows priced by
    a full SVD rather than a truncated one (row 0 and every fallback
    included), and ``passes`` the passes of truncated-SVD subspace
    iteration over the run (failed attempts included)."""

    X_star: np.ndarray
    Lambda_star: np.ndarray
    trace: SolverTrace
    converged: bool
    degenerate: bool
    n_iters: int
    full_svds: int
    passes: int

    @property
    def status(self) -> str:
        if self.degenerate:
            return "degenerate_warning"
        return "converged" if self.converged else "max_iters"


#: dual value certifying row k, from the update at Lambda^k (``upd``), the
#: multiplier itself, and the update that produced X^k with its projection
#: (``prev`` is None at row 0, where X^0 := 0)
_DUAL_AT_ROW = {
    DA: lambda upd, lam, alpha, prev, px: upd.dual_da,
    # Lagrangian at (X^k, Lambda^k): X^k minimizes the partially augmented
    # Lagrangian at the updated multiplier, so this is the exact dual value
    # there; row 0 has no such X^k and takes the plain dual, a lower bound
    ADA: lambda upd, lam, alpha, prev, px: upd.dual_da if prev is None else (
        prev.envelope_at_x
        + 0.5 * alpha * float(np.real(np.vdot(px, px)))
        + frobenius_inner(prev.x, lam)
    ),
    MOD_ADA: lambda upd, lam, alpha, prev, px: (
        upd.envelope_at_x + frobenius_inner(upd.x, lam) + 0.5 * alpha * upd.x_norm_sq
    ),
}


def run(objective, subspace: SubspaceOp, config: SolverConfig) -> SolverResult:
    """Run one dual ascent variant from Lambda^0 = 0.

    ``objective`` must expose ``update(Lambda, alpha, warm, dlam) ->
    PrimalUpdate`` and ``feasible_value`` (see
    :class:`slra.envelope.RankObjective`); ``warm`` is the previous row's
    ``PrimalUpdate.warm`` (None at row 0), so warm starts never outlive
    the run, and ``dlam`` an upper bound on ||Lambda^k - Lambda^{k-1}||_F
    (None at row 0).  Row k of the trace describes X^k (X^0 := 0) and
    Lambda^k; the one SVD of F - Lambda^k/2 computed for row k prices its
    dual value and yields the next primal iterate X^{k+1}.  Terminates
    when the feasibility residual ||X^k - P(X^k)|| drops below
    ``stop_tol`` or after ``max_iters`` updates.

    ``da`` returns the projected minimizer of the same SVD that priced the
    best row: the latest row whose dual came within
    1e-12 * max(1, |running maximum|) of the running maximum.  ``ada`` and ``mod_ada`` return the projected
    last iterate.  Without any update (``max_iters == 0``) X_star is X^0.
    """
    if objective.shape != subspace.shape:
        raise ValueError(
            f"objective shape {objective.shape} != subspace shape {subspace.shape}"
        )
    alpha = config.alpha_reg
    dual_at_row = _DUAL_AT_ROW[config.variant]
    lam = np.zeros(subspace.shape)
    prev, px = None, np.zeros(subspace.shape)  # update giving X^k, and P(X^k)
    resid = step_norm = lam_norm = 0.0
    rows = []
    best, top = 0, -np.inf
    warm = dlam = None
    full_svds = passes = 0
    degenerate = converged = False
    failure = None

    for k in range(config.max_iters + 1):
        try:
            upd = objective.update(lam, alpha, warm, dlam)
        except np.linalg.LinAlgError as exc:
            failure = f"SVD failed at row {k}: {exc}"
            break
        warm = upd.warm
        full_svds += warm is None or not warm.truncated
        passes += 0 if warm is None else warm.passes
        degenerate = degenerate or upd.degenerate
        dual = dual_at_row(upd, lam, alpha, prev, px)
        if not rows or dual >= top - _best_dual_tol(top):
            best, x_best = k, upd.x
        top = max(top, dual)
        rows.append((
            k,
            objective.feasible_value(px, alpha) if config.track_primal else np.nan,
            dual, resid, lam_norm, step_norm, best,
        ))
        if converged or k == config.max_iters:
            break

        prev, px = upd, subspace.project(upd.x)
        r = upd.x - px
        resid = float(np.linalg.norm(r))
        step = config.step(k)
        lam = lam + step * r
        step_norm = step * resid
        prev_norm, lam_norm = lam_norm, float(np.linalg.norm(lam))
        # the step's norm bounds ||Lambda^{k+1} - Lambda^k|| up to rounding:
        # of the step, of its norm, of the sum and of forming F - Lambda/2
        # from either multiplier, all within a few eps of the two norms
        dlam = step_norm + 4.0 * np.finfo(float).eps * (lam_norm + prev_norm)
        if not np.isfinite(lam_norm):  # NaN or infinite entries, or overflow
            failure = f"non-finite multiplier at iteration {k + 1}"
            break
        lam_in_m = float(np.linalg.norm(subspace.project(lam)))
        if lam_in_m > _LAMBDA_SUBSPACE_TOL * (1.0 + lam_norm):
            failure = f"multiplier left the complement subspace at iteration {k + 1}"
            break
        converged = resid < config.stop_tol

    trace = SolverTrace.from_rows(rows)
    if failure:
        raise SolverNumericalError(failure, trace=trace)
    return SolverResult(
        X_star=subspace.project(x_best) if config.variant == DA and k else px,
        Lambda_star=lam,
        trace=trace,
        converged=converged,
        degenerate=degenerate,
        n_iters=k,
        full_svds=full_svds,
        passes=passes,
    )


@dataclass
class LambdaBoundReport:
    """A-priori multiplier bound check for decaying-step runs.

    With c1 = 3||F|| + 2 sqrt(K) sigma0, c2 = ||F||^2 and p(R) =
    -R^2/2 + c1 R + c2, every update satisfies
    ||Lambda^{n+1}|| <= max(sqrt(R0^2 + alpha_n * p_max), ||Lambda^n||),
    where R0 is the larger root of p and p_max its maximum.
    """

    c1: float
    c2: float
    r0: float
    p_max: float
    margins: np.ndarray  # bound - ||Lambda^{n}||, one per update
    ok: bool


def check_lambda_bound(trace: SolverTrace, F, sigma0: float) -> LambdaBoundReport:
    """Verify the boundedness inequality on a recorded decaying-step trace.

    The step sizes are recovered from the trace itself
    (step_norm = alpha_n * feas_residual); zero-residual updates keep the
    multiplier unchanged and satisfy the bound trivially.
    """
    F = np.asarray(F)
    k_min = min(F.shape)
    c1 = 3.0 * float(np.linalg.norm(F)) + 2.0 * np.sqrt(k_min) * sigma0
    c2 = float(np.linalg.norm(F)) ** 2
    r0 = c1 + np.sqrt(c1 * c1 + 2.0 * c2)
    p_max = 0.5 * c1 * c1 + c2
    margins = []
    ok = True
    for i in range(1, len(trace)):
        if trace.feas_residual[i] > 0:
            alpha_n = trace.step_norm[i] / trace.feas_residual[i]
        else:
            alpha_n = 1.0  # no movement; any step satisfies the bound
        bound = max(np.sqrt(r0 * r0 + alpha_n * p_max), trace.lambda_norm[i - 1])
        margin = bound - trace.lambda_norm[i]
        margins.append(margin)
        if margin < -1e-9 * (1.0 + bound):
            ok = False
    return LambdaBoundReport(
        c1=c1, c2=c2, r0=r0, p_max=p_max, margins=np.array(margins), ok=ok
    )


@dataclass
class AdaRateReport:
    """Diagnostics of the fixed-step dual ascent convergence behaviour."""

    gaps: np.ndarray          # d_n = max observed dual - dual_n
    scaled_gaps: np.ndarray   # n * d_n
    min_increment_slack: float  # min over n of (dual_{n+1}-dual_n) - ||step||^2/alpha
    monotone_ok: bool
    tail_ok: bool


def ada_rate_report(trace: SolverTrace, alpha: float) -> AdaRateReport:
    """Check the per-iteration dual increase inequality and the decay of
    n * (sup - dual_n) over the last quartile of a fixed-step trace."""
    d = trace.dual
    increments = np.diff(d)
    required = trace.step_norm[1:] ** 2 / alpha
    slack = increments - required
    monotone_ok = bool(np.all(slack >= -1e-9))
    gaps = np.max(d) - d
    scaled = trace.n * gaps
    q = max(2, len(scaled) // 4)
    tail = scaled[-q:]
    tol = 1e-9 * (1.0 + float(np.max(scaled, initial=0.0)))
    tail_ok = bool(np.all(np.diff(tail) <= tol))
    return AdaRateReport(
        gaps=gaps,
        scaled_gaps=scaled,
        min_increment_slack=float(np.min(slack, initial=0.0)),
        monotone_ok=monotone_ok,
        tail_ok=tail_ok,
    )
