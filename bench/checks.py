"""Correctness checks on the outputs of each workload.

Every check compares an output against a property of the method or an
independent plain-numpy computation, never against a stored copy of an
earlier output.  A failed check raises :class:`CheckFailed`.
"""

import json
from pathlib import Path

import numpy as np

from slra.solvers import SolverTrace

#: rounding allowance for inequalities that hold exactly in real arithmetic,
#: relative to the largest objective value involved: primal and dual values
#: are sums of terms of the size of ||F||^2 and cancel down from there
REL_ROUNDING = 1e-12

#: relative size the multiplier's Hankel component may reach (roundoff)
LAMBDA_HANKEL_RTOL = 1e-9

#: relative tolerance at which a frequency-estimation solution has rank 4
FREQEST_RANK_RTOL = 1e-6
FREQEST_RANK = 4


class CheckFailed(AssertionError):
    """An output violates a property the method guarantees."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _rounding(*values):
    """Rounding allowance for comparisons among objective values."""
    finite = [np.abs(v[np.isfinite(v)]) for v in map(np.atleast_1d, values)]
    return REL_ROUNDING * max([1.0] + [float(f.max()) for f in finite if f.size])


def antidiagonal_means(x):
    """Mean of x[i, j] over each antidiagonal i + j = k, k = 0 .. rows+cols-2."""
    x = np.asarray(x)
    rows, cols = x.shape
    flipped = np.fliplr(x)
    return np.array([np.diagonal(flipped, cols - 1 - k).mean()
                     for k in range(rows + cols - 1)])


def hankel_of(means, rows, cols):
    """Matrix with H[i, j] = means[i + j]."""
    return np.asarray(means)[np.add.outer(np.arange(rows), np.arange(cols))]


def check_converge(report, methods, ada="ada"):
    """Weak duality on the mean curves of each method, and a non-decreasing
    mean dual for the fixed-step augmented variant."""
    for m in methods:
        p = np.asarray(report.primal_curves[m])
        d = np.asarray(report.dual_curves[m])
        _require(np.all(np.isfinite(p)) and np.all(np.isfinite(d)),
                 f"{m}: non-finite mean curve")
        tol = _rounding(p, d)
        _require(p.min() >= d.max() - tol,
                 f"{m}: weak duality violated, min mean primal {p.min():.12g} "
                 f"< max mean dual {d.max():.12g}")
    d = np.asarray(report.dual_curves[ada])
    drops = np.diff(d) + _rounding(report.primal_curves[ada], d)
    _require(np.all(drops >= 0),
             f"{ada}: mean dual decreases at n = {int(np.argmin(drops)) + 1}")


def check_converge_files(out_dir, methods, iters):
    """The curves CSV holds one row per method and iteration."""
    with open(Path(out_dir) / "converge_curves.csv") as fh:
        header, *rows = fh.read().splitlines()
    _require(header == "method,n,mean_primal,mean_dual", "converge_curves.csv: bad header")
    _require(len(rows) == len(methods) * (iters + 1),
             f"converge_curves.csv: {len(rows)} rows, expected {len(methods) * (iters + 1)}")


def check_freqest_study(study, trials):
    """Every trial converged and produced finite error differences."""
    _require(study["converged_fraction"] == 1.0,
             f"freqest: converged fraction {study['converged_fraction']}")
    for key in ("frob_diff", "l2_diff"):
        vals = np.asarray(study[key])
        _require(vals.size == trials and np.all(np.isfinite(vals)), f"freqest: bad {key}")


def check_freqest_solution(x_star):
    """X_star is Hankel (equal to its own antidiagonal means) and has
    numerical rank 4."""
    x = np.asarray(x_star)
    h = hankel_of(antidiagonal_means(x), *x.shape)
    dev = float(np.linalg.norm(x - h))
    _require(dev <= REL_ROUNDING * float(np.linalg.norm(x)),
             f"freqest: X_star is not Hankel (deviation {dev:.3g})")
    s = np.linalg.svd(x, compute_uv=False)
    rank = int(np.count_nonzero(s > FREQEST_RANK_RTOL * s[0]))
    _require(rank == FREQEST_RANK, f"freqest: X_star has numerical rank {rank}")


def check_solve_output(out_dir, result=None):
    """Summary, trace CSV and multiplier of one ``slra solve`` request.

    ``result`` is the in-memory solver result, when available; the trace
    read back from disk must then match it to the 12 significant digits
    the CSV carries.
    """
    out = Path(out_dir)
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    trace = SolverTrace.read_csv(out / "trace.csv")
    primal, dual = summary["final_primal"], summary["final_dual"]
    _require(primal >= dual - _rounding(trace.primal, trace.dual),
             f"solve: final_primal {primal:.12g} < final_dual {dual:.12g}")
    try:
        trace.check_invariants()
    except AssertionError as exc:
        raise CheckFailed(f"solve: trace.csv {exc}") from None
    _require(len(trace) == summary["n_iters"] + 1,
             f"solve: trace.csv has {len(trace)} rows for {summary['n_iters']} iterations")
    _require(np.isclose(trace.primal[-1], primal, rtol=1e-11, atol=0)
             and np.isclose(trace.dual[-1], dual, rtol=1e-11, atol=0),
             "solve: trace.csv disagrees with summary.json")
    if result is not None:
        for col in ("primal", "dual", "feas_residual", "lambda_norm"):
            _require(np.allclose(getattr(trace, col), getattr(result.trace, col),
                                 rtol=1e-11, atol=0, equal_nan=True),
                     f"solve: trace.csv column {col} does not round-trip")

    lam = np.load(out / "lambda_star.npy")
    means = antidiagonal_means(lam)
    scale = max(1.0, float(np.linalg.norm(lam)))
    _require(float(np.max(np.abs(means))) <= LAMBDA_HANKEL_RTOL * scale,
             "solve: lambda_star has a Hankel component "
             f"({float(np.max(np.abs(means))):.3g} relative to {scale:.3g})")
    return summary
