"""Dual ascent iterations for subspace-constrained envelope minimization.

Three variants share one loop, and each fixes its own step rule (see
:class:`SolverConfig`):

* ``da``      -- hard-threshold primal update, decaying steps 1/(n+1)
                 (or 1/sqrt(n+1)), best-iterate tracking on the
                 dual values.
* ``ada``     -- augmented primal update with weight alpha, fixed step
                 alpha; the whole sequence converges.
* ``mod_ada`` -- augmented primal update with steps 2/(n+1)^2 + alpha that
                 decay to alpha, taking large steps early on.

The multiplier always stays in the orthogonal complement of the constraint
subspace.  Each trace row costs one SVD of F - Lambda/2, which the
objective may truncate, warm-started from the rows before, or else take
in full; :meth:`slra.envelope.RankObjective.update` gives the policy.
A row whose exact primal value is priced costs one more, values-only,
SVD of P(X); ``SolverConfig.primal_rows`` names those rows.  Only under
``doubling``, the setting that leaves rows unpriced, does every row also
carry a certified upper bound on that value, from no SVD (see
:meth:`slra.envelope.RankObjective.primal_bound`).  The warm start
travels from row to row, so no state outlives a run.  Certifying a
truncation needs a bound on how far F - Lambda/2 moved since the previous
row; the run knows the multiplier's step as step * ||X - P(X)|| and hands
the objective that figure plus a rounding margin, so no row sweeps the
difference of two matrices for it.

Dual values recorded in the trace: for ``da`` and ``mod_ada`` the dual is
the conjugate-based dual function at Lambda^n.  For ``ada`` the recorded
dual is the Lagrangian of the partially augmented objective (quadratic
penalty restricted to the subspace component) evaluated at the pair
(X^n, Lambda^n); by the optimality of X^n for the updated multiplier this
equals the partially augmented dual function, the quantity that increases
by at least ``alpha^-1 * ||step||^2`` per iteration, as
``tests/test_solvers.py::test_ada_dual_rise_and_rate`` asserts.  Evaluating
the fully augmented conjugate instead would lose that guarantee (its
increments are only bounded below with an extra factor 1/2).
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .matops import _EPS, frobenius_norm

DA = "da"
ADA = "ada"
MOD_ADA = "mod_ada"
VARIANTS = (DA, ADA, MOD_ADA)

#: settings of ``SolverConfig.primal_rows``: the exact primal value on every
#: row, on rows 0, 2^j and the last, or on none
PRIMAL_ROWS = ("all", "doubling", "none")

#: multiplier must stay in the complement up to this share of
#: 1 + ||Lambda|| + ||X||, X being the iterate whose residual it last took
_LAMBDA_SUBSPACE_TOL = 1e-10

#: a row becomes the best iterate when its dual is within this share of
#: max(1, |running maximum|) of the running maximum, so that the choice
#: does not hang on rounding once the dual flattens
_BEST_DUAL_RTOL = 1e-12


class SolverNumericalError(RuntimeError):
    """Numerical failure inside the iteration; carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    """Variant and stopping parameters for :func:`run`; the variant fixes
    the step alpha_n that multiplies the n-th multiplier update.

    ``da`` takes decaying steps 1/(n+1), or 1/sqrt(n+1) with
    ``sqrt_steps``, and needs ``alpha_reg == 0``.  ``ada`` takes the fixed
    step ``alpha_reg``, its augmentation weight, and ``mod_ada`` the steps
    2/(n+1)^2 + ``alpha_reg``, which decay to it; both need a finite
    ``alpha_reg > 0``.  The residual stop ||X - P(X)||_F < ``stop_tol`` is
    absolute, in the data's units: data scaled by c > 1 stop no earlier.
    ``stop_tol`` 0 turns it off, so a run makes all ``max_iters`` updates.

    ``primal_rows`` names the trace rows priced by the exact primal value,
    one values-only SVD each: ``all`` of them, ``doubling`` (row 0, the
    rows 2^j and the last row, so about log2 of the row count) or
    ``none``.  Under ``doubling``, the one setting that leaves rows
    unpriced, every row also records the certified upper bound of
    :meth:`slra.envelope.RankObjective.primal_bound` on that value, which
    costs no SVD.  No other output depends on it.
    """

    variant: str
    alpha_reg: float = 0.0
    max_iters: int = 1000
    stop_tol: float = 1e-6
    primal_rows: str = "all"
    sqrt_steps: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if not 0 <= self.stop_tol < math.inf:
            raise ValueError(f"stop_tol must be finite and non-negative, got {self.stop_tol}")
        if self.variant == DA:
            if self.alpha_reg != 0:
                raise ValueError("da requires alpha_reg == 0")
        elif not 0 < self.alpha_reg < math.inf:
            raise ValueError(f"{self.variant} needs a finite alpha_reg > 0, got {self.alpha_reg}")
        if self.sqrt_steps and self.variant != DA:
            raise ValueError("sqrt_steps applies to da only")
        if self.primal_rows not in PRIMAL_ROWS:
            raise ValueError(f"primal_rows must be one of {PRIMAL_ROWS}, got {self.primal_rows!r}")

    def step(self, n: int) -> float:
        """Step alpha_n of the n-th multiplier update (n >= 0)."""
        if self.variant == ADA:
            return self.alpha_reg
        if self.variant == MOD_ADA:
            return 2.0 / (n + 1) ** 2 + self.alpha_reg
        if self.sqrt_steps:
            return 1.0 / np.sqrt(n + 1)
        return 1.0 / (n + 1)


_TRACE_COLUMNS = ("n", "primal", "dual", "feas_residual", "lambda_norm", "step_norm", "best_n",
                  "primal_bound")
#: one CSV row of the trace, with the line end of ``csv.writer``
_TRACE_ROW = "{},{:.12e},{:.12e},{:.12e},{:.12e},{:.12e},{},{:.12e}\r\n"


@dataclass
class SolverTrace:
    """Per-iteration record; row n describes the state after n updates.

    ``primal`` is the exact primal value of P(X^n) on the rows that
    ``SolverConfig.primal_rows`` prices and NaN on the others;
    ``primal_bound`` is a certified upper bound on it on every row under
    ``doubling`` (the exact value on row 0, where X^0 = 0), and NaN
    throughout under ``all`` and ``none``."""

    n: np.ndarray
    primal: np.ndarray
    dual: np.ndarray
    feas_residual: np.ndarray
    lambda_norm: np.ndarray
    step_norm: np.ndarray
    best_n: np.ndarray
    primal_bound: np.ndarray

    def __len__(self):
        return len(self.n)

    def write_csv(self, path):
        """One row per iteration, header included, >= 12 significant digits."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join(_TRACE_COLUMNS) + "\r\n")
            columns = (getattr(self, c).tolist() for c in _TRACE_COLUMNS)
            fh.writelines(map(_TRACE_ROW.format, *columns))

    @classmethod
    def from_rows(cls, rows):
        """Trace from rows ordered as the CSV columns."""
        data = np.array(rows, dtype=float).reshape(-1, len(_TRACE_COLUMNS))
        cols = dict(zip(_TRACE_COLUMNS, data.T))
        cols["n"] = cols["n"].astype(int)
        cols["best_n"] = cols["best_n"].astype(int)
        return cls(**cols)

    @classmethod
    def read_csv(cls, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
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
        tol = _BEST_DUAL_RTOL * np.maximum(1.0, np.abs(top))
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
    included), and ``passes`` the passes of every truncated attempt of
    the run, failed ones included (see
    :meth:`slra.envelope.RankObjective.update`)."""

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


def run(objective, subspace, config: SolverConfig) -> SolverResult:
    """Run one dual ascent variant from Lambda^0 = 0.

    ``objective`` must expose ``update(Lambda, alpha, warm, dlam) ->
    PrimalUpdate``, ``feasible_value``, under ``doubling`` ``primal_bound``,
    for ``ada`` ``envelope_value(x, svals)`` and for ``mod_ada`` ``augmented_dual``
    (see :class:`slra.envelope.RankObjective`); ``warm`` is the previous row's
    ``PrimalUpdate.warm`` (None at row 0), so warm starts never outlive
    the run, and ``dlam`` an upper bound on ||Lambda^k - Lambda^{k-1}||_F
    (None at row 0).  ``subspace`` must expose the same ``shape`` and
    ``project(X)``, the orthogonal projector P onto the constraint
    subspace (see :mod:`slra.subspace`).  Row k of the trace describes
    X^k (X^0 := 0) and Lambda^k; the one SVD of F - Lambda^k/2 computed
    for row k prices its dual value and yields the next primal iterate
    X^{k+1}.  Terminates when the feasibility residual ||X^k - P(X^k)||
    drops below ``stop_tol``, which it never does when that is 0, or after
    ``max_iters`` updates.  Under ``doubling`` the last row is known before
    it is recorded, so it is always priced; a run that raises
    :class:`SolverNumericalError` stops after a row it took for an inner
    one, so its partial trace carries exact values on rows 0 and 2^j
    only, and bounds on every row.

    ``da`` returns the projected minimizer of the same SVD that priced the
    best row: the latest row whose dual came within
    1e-12 * max(1, |running maximum|) of the running maximum.  ``ada`` and
    ``mod_ada`` return the projected last iterate.  Without any update
    (``max_iters == 0``) X_star is X^0.
    """
    if objective.shape != subspace.shape:
        raise ValueError(
            f"objective shape {objective.shape} != subspace shape {subspace.shape}"
        )
    alpha, doubling = config.alpha_reg, config.primal_rows == "doubling"
    lam = np.zeros(subspace.shape)
    prev, px = None, np.zeros(subspace.shape)  # update giving X^k, and P(X^k)
    resid = step_norm = lam_norm = 0.0
    rows = []
    best, top = 0, -np.inf
    full_svds = passes = 0
    degenerate = converged = False
    failure = dlam = None

    for k in range(config.max_iters + 1):
        try:
            upd = objective.update(lam, alpha, None if prev is None else prev.warm, dlam)
        except np.linalg.LinAlgError as exc:
            failure = f"SVD failed at row {k}: {exc}"
            break
        full_svds += upd.warm is None or not upd.warm.truncated
        passes += 0 if upd.warm is None else upd.warm.passes
        degenerate = degenerate or upd.degenerate
        if config.variant == MOD_ADA:
            dual = objective.augmented_dual(upd, lam, alpha)
        elif config.variant == ADA and prev is not None:
            # Lagrangian at (X^k, Lambda^k): X^k minimizes the partially
            # augmented Lagrangian at the updated multiplier, so this is the
            # exact dual value there; row 0 has no such X^k and takes the
            # plain dual, a lower bound
            dual = (objective.envelope_value(prev.x, prev.fs)
                    + 0.5 * alpha * float(np.vdot(px, px).real)
                    + float(np.vdot(prev.x, lam).real))
        else:
            dual = upd.dual_da
        if not rows or dual >= top - _BEST_DUAL_RTOL * max(1.0, abs(top)):
            best, x_best = k, upd.x
        top = max(top, dual)
        last = converged or k == config.max_iters
        primal = bound = np.nan
        if config.primal_rows == "all" or doubling and (last or not k & (k - 1)):  # k = 0, 2^j
            primal = objective.feasible_value(px, alpha)
        if doubling:  # the bound stands in on the rows left unpriced
            bound = primal if prev is None else objective.primal_bound(prev, px, resid, alpha)
        rows.append((k, primal, dual, resid, lam_norm, step_norm, best, bound))
        if last:
            break

        prev, px = upd, subspace.project(upd.x)
        r = upd.x - px
        resid = frobenius_norm(r)
        step = config.step(k)
        lam = lam + step * r
        step_norm = step * resid
        prev_norm, lam_norm = lam_norm, frobenius_norm(lam)
        # the step's norm bounds ||Lambda^{k+1} - Lambda^k|| up to rounding:
        # of the step, of its norm, of the sum and of forming F - Lambda/2
        # from either multiplier, all within a few eps of the two norms
        dlam = step_norm + 4.0 * _EPS * (lam_norm + prev_norm)
        if not math.isfinite(lam_norm):  # NaN or infinite entries, or overflow
            failure = f"non-finite multiplier at iteration {k + 1}"
            break
        # the rounding of X - P(X) leaves P(Lambda) a few eps of ||X||
        lam_in_m = frobenius_norm(subspace.project(lam))
        if lam_in_m > _LAMBDA_SUBSPACE_TOL * (1.0 + lam_norm + math.sqrt(upd.x_norm_sq)):
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
