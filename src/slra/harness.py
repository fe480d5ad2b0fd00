"""Experiment harness: seeded Monte-Carlo studies of the three solver
variants on random cosine-sum Hankel problems, the four-tone frequency
estimation comparison against ESPRIT, the scalar toy table, and a general
solve entry point.

One cosine-sum run (``cmd_converge``) writes all three views of that
study: the mean primal and dual curves (``converge_curves.csv``), the mean
normalized distance to the ground truth (``gtdist.csv``), the mean leading
singular values (``singvals.csv``), and a summary with the config, final
gaps and distances (``converge_summary.json``).

Trials fan out over a process pool of SLRA_THREADS workers, one per CPU
the process may run on when that variable is unset, and capped by
nothing but the trial count; every trial derives its own generator seed
from the base seed and the trial index, and aggregation runs in fixed
trial order.  Trials run on one OpenBLAS thread, in the pool's workers
and in this process alike, so results are bit-reproducible for any
worker count wherever that pinning works: with numpy's OpenBLAS.
Elsewhere a note on stderr says that nothing is pinned, and the last
digits may then follow the BLAS thread count.
"""

import ctypes
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Union

import numpy as np

from . import solvers
from .envelope import RankObjective, toy_tilted_minimizers
from .esprit import esprit_hankel_error
from .matops import numerical_rank
from .signals import (
    add_noise,
    four_tone_model,
    gen_cos_sum,
    load_model_json,
    load_signal_csv,
    sample_signal,
    save_signal_csv,
    sigma0_heuristic,
    signal_to_hankel,
    snr_to_sigma,
)
from .solvers import SolverConfig
from .subspace import HankelSubspace

#: the studies' methods, spelled out: a new solver variant does not join ``converge``
METHODS = (solvers.DA, solvers.ADA, solvers.MOD_ADA)

#: SNR grid of the frequency-estimation study, in dBW, its iteration
#: budget per trial, the order of its ESPRIT fit (one per tone), and its
#: penalty setting: the spectral-gap heuristic of that order
FREQEST_SNR_LEVELS = tuple(np.arange(0.0, 25.0 + 1e-9, 2.5))
FREQEST_MAX_ITERS = 2000
FREQEST_GAP_P = len(four_tone_model().terms)
FREQEST_SIGMA0 = f"gap:{FREQEST_GAP_P}"

#: bins of each SNR level's histogram in ``freqest_hist.csv``
FREQEST_HIST_BINS = 24

#: exact multiplier values of the first five scalar-toy iterations
TOY_LAMBDA_TABLE = (1.0, 1.0 / 2.0, 1.0 / 6.0, -1.0 / 12.0, 7.0 / 60.0)

#: default penalty level of the cosine-sum protocol.  A fixed level below
#: the noise-bulk edge (~1.9 for 0.1-noise on 101x100) keeps the initial
#: hard threshold from removing all noise directions at once, which is the
#: regime the reference distance table was produced in; the spectral-gap
#: heuristic would force an exact rank-8 first iterate and erase the slow
#: fixed-step behaviour the table documents.
COSSUM_SIGMA0 = 0.8

#: noise standard deviation of the cosine-sum protocol (``noise_sigma``)
COSSUM_NOISE_SIGMA = 0.1

@dataclass
class ExperimentConfig:
    """Shared experiment parameters; defaults reproduce the desk-scale
    protocols (100 trials instead of the paper-scale counts)."""

    experiment: str
    trials: int = 100
    iters: int = 100
    alpha: float = 0.1
    sigma0: Union[float, str] = COSSUM_SIGMA0  # penalty level or 'gap:P'
    seed: int = 0
    output_dir: Path = Path("out")

    def __post_init__(self):
        for name, least in (("trials", 1), ("iters", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        self.alpha = float(self.alpha)
        # 'gap:P' with a whole P >= 1 stays text; any other value is a level
        if not (isinstance(self.sigma0, str) and re.fullmatch(r"gap:0*[1-9]\d*", self.sigma0)):
            try:
                level = float(self.sigma0)
            except (TypeError, ValueError):
                level = math.nan
            if not 0 < level < math.inf:
                raise ValueError(f"sigma0 must be a finite level > 0 or gap:P, P >= 1, "
                                 f"got {self.sigma0!r}")
            self.sigma0 = level
        self.output_dir = Path(self.output_dir)
        first = next((p for p in (self.output_dir, *self.output_dir.parents) if p.exists()), None)
        if first is not None and not first.is_dir():
            raise ValueError(f"output_dir must be a directory, but {first} is a file")


@dataclass
class AggregateReport:
    """Arithmetic means over the trials of the cosine-sum study."""

    primal_curves: dict   # method -> array over iterations
    dual_curves: dict
    gt_distance: dict     # method -> mean normalized distance
    singvals: dict        # series -> mean 10 leading values


def _worker_count() -> int:
    env = os.environ.get("SLRA_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"SLRA_THREADS must be an integer, got {env!r}") from None
        if count < 1:
            raise ValueError(f"SLRA_THREADS must be at least 1, got {count}")
        return count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: (getter, setter) symbol pairs of the OpenBLAS thread count: the
#: scipy-openblas build in numpy's wheels, then a plain OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy has loaded,
    or None, said once on stderr, when no loaded library has them."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    print("slra: no OpenBLAS found; BLAS threads are not pinned", file=sys.stderr)
    return None


def _set_blas_threads(n):
    """Set the OpenBLAS thread count to ``n``; returns the count before,
    or ``n`` itself when no OpenBLAS is found, so that setting the returned
    count back is always a restore."""
    threads = _openblas_threads()
    if threads is None:
        return n
    get, set_ = threads
    previous = get()
    set_(n)
    return previous


class TrialWorkerDied(RuntimeError):
    """A worker of the trial pool ended before it returned its trials."""


def _map_trials(fn, items):
    # at the matrix sizes used here, threaded BLAS kernels are slower than
    # single-threaded ones and oversubscribe the trial worker pool
    items = list(items)
    workers = min(_worker_count(), len(items))
    if workers <= 1:
        previous = _set_blas_threads(1)
        try:
            return [fn(it) for it in items]
        finally:
            _set_blas_threads(previous)
    # imported here, so that a run without a pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(workers, initializer=_set_blas_threads, initargs=(1,)) as ex:
            return list(ex.map(fn, items))
    except BrokenProcessPool as exc:
        raise TrialWorkerDied(f"a trial worker died: {exc}") from exc


def _method_config(method, alpha, iters, stop_tol=0.0, **kw):
    alpha_reg = 0.0 if method == solvers.DA else alpha
    return SolverConfig(method, alpha_reg, max_iters=iters, stop_tol=stop_tol, **kw)


def _resolve_sigma0(F, sigma0):
    """Penalty level of the setting ``sigma0`` (see ExperimentConfig) on F:
    the level itself, or for 'gap:P' the spectral-gap heuristic of order P,
    once P is checked to fit F's shape."""
    if not isinstance(sigma0, str):
        return sigma0
    p, shape = int(sigma0[4:]), F.shape
    if p >= min(shape):
        raise ValueError(f"sigma0 {sigma0} does not fit data of shape {shape[0]}x{shape[1]}: "
                         f"P must be at most min(shape) - 1 = {min(shape) - 1}")
    return sigma0_heuristic(F, p)


def _cossum_trial(args):
    """One random-instance run of all three methods; returns its record of
    leading singular values of data and truth and, one row per method,
    curves, normalized ground-truth distances and X*'s leading values."""
    (trial_seed, iters, alpha, sigma0) = args
    rng = np.random.default_rng(trial_seed)
    f = gen_cos_sum(rng)
    h_gt, sub = signal_to_hankel(f)
    noisy = add_noise(h_gt, COSSUM_NOISE_SIGMA, rng=rng)
    obj = RankObjective(noisy, _resolve_sigma0(noisy, sigma0))
    gt_norm = float(np.linalg.norm(h_gt))
    runs = [solvers.run(obj, sub, _method_config(m, alpha, iters)) for m in METHODS]
    return {
        "sv_noisy": np.linalg.svd(noisy, compute_uv=False)[:10],
        "sv_gt": np.linalg.svd(h_gt, compute_uv=False)[:10],
        "primal": [res.trace.primal for res in runs],
        "dual": [res.trace.dual for res in runs],
        # normalized distance ||H - H_gt|| / ||H_gt||; the tabulated
        # reference values correspond to this unsquared ratio
        "dist": [float(np.linalg.norm(res.X_star - h_gt)) / gt_norm for res in runs],
        "sv_out": [np.linalg.svd(res.X_star, compute_uv=False)[:10] for res in runs],
    }


def _stack(records, *shape):
    """Each field of the per-trial ``records``, stacked over the trials in
    their order into an array of ``shape`` followed by the field's own."""
    return {key: np.stack([r[key] for r in records]).reshape(shape + np.shape(records[0][key]))
            for key in records[0]}


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                format(v, ".12e") if isinstance(v, float) else str(v) for v in row
            ) + "\n")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def cmd_converge(config: ExperimentConfig) -> AggregateReport:
    """Random cosine-sum protocol: rank-8 101x100 Hankel ground truth,
    elementwise Gaussian noise, all three methods for a fixed iteration
    budget.  Writes and returns the mean primal and dual curves, mean
    normalized distance ||H - H_gt|| / ||H_gt|| to the ground truth, and
    mean leading singular values of data, truth and the three methods."""
    if isinstance(config.sigma0, str):
        # every trial's data has the shape of the first one's noise-free
        # matrix, so a P that does not fit fails here, before the trial pool
        _resolve_sigma0(signal_to_hankel(gen_cos_sum(np.random.default_rng(config.seed)))[0],
                        config.sigma0)
    items = [
        (config.seed + t, config.iters, config.alpha, config.sigma0)
        for t in range(config.trials)
    ]
    mean = {key: np.mean(field, axis=0) for key, field in
            _stack(_map_trials(_cossum_trial, items), config.trials).items()}
    report = AggregateReport(
        primal_curves=dict(zip(METHODS, mean["primal"])),
        dual_curves=dict(zip(METHODS, mean["dual"])),
        gt_distance=dict(zip(METHODS, mean["dist"])),
        singvals={"noisy": mean["sv_noisy"], "ground_truth": mean["sv_gt"],
                  **dict(zip(METHODS, mean["sv_out"]))},
    )
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    rows = [(m, n, float(report.primal_curves[m][n]), float(report.dual_curves[m][n]))
            for m in METHODS for n in range(config.iters + 1)]
    _write_csv(out / "converge_curves.csv", ("method", "n", "mean_primal", "mean_dual"), rows)
    dist = {m: float(report.gt_distance[m]) for m in METHODS}
    _write_csv(out / "gtdist.csv", ("method", "alpha", "mean_normalized_distance", "trials"),
               [(m, float(config.alpha), d, config.trials) for m, d in dist.items()])
    _write_csv(out / "singvals.csv", ("series", "j", "mean_sigma"),
               [(series, j, float(v)) for series, vals in report.singvals.items()
                for j, v in enumerate(vals, start=1)])
    _write_json(out / "converge_summary.json", {
        "config": {**asdict(config), "output_dir": str(out),
                   "noise_sigma": COSSUM_NOISE_SIGMA},
        "final_gap": {
            m: float(report.primal_curves[m][-1] - report.dual_curves[m][-1])
            for m in METHODS
        },
        "mean_normalized_distance": dist,
    })
    return report


def cmd_toy(config: ExperimentConfig):
    """Persist and return the five-iteration toy table: plain dual ascent on
    the scalar toy |x^2 - 1| subject to x = 0, with harmonic steps, as rows
    (n, x_n, lambda_n), x_n the larger minimizer of
    |x^2 - 1| + lambda_{n-1} x and lambda_n = lambda_{n-1} + x_n / n
    (the complement of {0} is everything, so the whole of x_n enters).  The
    multiplier column must match the known exact values to 1e-12."""
    lam, rows = 0.0, []
    for n, ref in enumerate(TOY_LAMBDA_TABLE, start=1):
        x = float(max(toy_tilted_minimizers(lam)))
        lam = lam + (1.0 / n) * x
        if abs(lam - ref) > 1e-12:
            raise AssertionError(f"toy multiplier {lam} != {ref} at n={n}")
        rows.append((n, x, lam))
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "toy_table.csv", ("n", "x", "lambda"), rows)
    return rows


def _freqest_trial(args):
    """One (SNR level, trial) comparison of dual ascent and ESPRIT.

    Both methods approximate the same noisy signal; errors are the
    residuals against that data (the vector generating the Hankel matrix
    being approximated), in Frobenius norm on the matrices and in l2 on
    the generating vectors.  Returns the trial's record: ``frob_diff`` and
    ``l2_diff``, ESPRIT's error minus dual ascent's scaled by 10^(SNR/20)
    (a positive Frobenius difference means dual ascent wins), and the
    solver's ``converged``, ``n_iters``, ``full_svds`` and ``passes``."""
    (trial_seed, snr_dbw, max_iters) = args
    model = four_tone_model()
    f = sample_signal(model)
    rng = np.random.default_rng(trial_seed)
    noisy = add_noise(f, snr_to_sigma(f, snr_dbw), rng=rng)
    F, sub = signal_to_hankel(noisy)
    obj = RankObjective(F, _resolve_sigma0(F, FREQEST_SIGMA0))
    cfg = SolverConfig(solvers.DA, max_iters=max_iters, primal_rows="none", sqrt_steps=True)
    res = solvers.run(obj, sub, cfg)
    frob_da = float(np.linalg.norm(res.X_star - F))
    l2_da = float(np.linalg.norm(sub.to_vector(res.X_star) - noisy))
    frob_es, l2_es = esprit_hankel_error(noisy, FREQEST_GAP_P, sub, model.delta, model.indices)
    scale = 10.0 ** (snr_dbw / 20.0)
    return {
        "frob_diff": (frob_es - frob_da) * scale,
        "l2_diff": (l2_es - l2_da) * scale,
        "converged": res.converged,
        "n_iters": res.n_iters,
        "full_svds": res.full_svds,
        "passes": res.passes,
    }


def _svd_use(n_iters, full_svds, passes):
    """Over the solver runs with these counts, the share of rows priced
    by a full SVD, and the subspace iteration passes per truncated row
    (None when no row was truncated)."""
    rows = int(np.sum(n_iters)) + np.size(n_iters)
    full_svds, passes = int(np.sum(full_svds)), int(np.sum(passes))
    truncated = rows - full_svds
    return {
        "full_svd_fraction": full_svds / rows,
        "passes_per_truncated_row": passes / truncated if truncated else None,
    }


def run_freqest_study(config: ExperimentConfig, snr_levels=FREQEST_SNR_LEVELS,
                      max_iters: int = FREQEST_MAX_ITERS):
    """Frequency-estimation comparison over the SNR grid.

    Returns the per-trial scaled error differences ``frob_diff`` and
    ``l2_diff`` (see :func:`_freqest_trial`) as (levels, trials) arrays
    whose rows follow ``snr_levels``, the share of solver rows priced by
    a full rather than a truncated SVD, and the subspace iteration passes
    per truncated row (None when no row was truncated), pooled and under
    ``levels`` per SNR level.
    """
    items = []
    for li, snr in enumerate(snr_levels):
        for t in range(config.trials):
            items.append((config.seed + li * config.trials + t, float(snr), max_iters))
    trials = _stack(_map_trials(_freqest_trial, items), len(snr_levels), config.trials)
    counts = (trials["n_iters"], trials["full_svds"], trials["passes"])
    return {
        "snr_levels": np.asarray(snr_levels, dtype=float),
        "frob_diff": trials["frob_diff"],
        "l2_diff": trials["l2_diff"],
        "frob_positive_fraction": float(np.mean(trials["frob_diff"] > 0)),
        "l2_negative_fraction": float(np.mean(trials["l2_diff"] < 0)),
        "converged_fraction": float(np.mean(trials["converged"])),
        "mean_iters": float(np.mean(trials["n_iters"])),
        **_svd_use(*counts),
        "levels": [{"snr_dbw": float(snr), **_svd_use(*level)}
                   for snr, *level in zip(snr_levels, *counts)],
    }


def _histogram_rows(norm_name, snr_levels, diffs):
    lo, hi = float(np.min(diffs)), float(np.max(diffs))
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, FREQEST_HIST_BINS + 1)
    rows = []
    for li, snr in enumerate(snr_levels):
        counts, _ = np.histogram(diffs[li], bins=edges)
        for b in range(FREQEST_HIST_BINS):
            rows.append((norm_name, float(snr), float(edges[b]),
                         float(edges[b + 1]), int(counts[b])))
    return rows


def cmd_freqest(config: ExperimentConfig, snr_levels=FREQEST_SNR_LEVELS) -> dict:
    """Run the SNR sweep and emit raw differences, histogram bins and a
    summary; differences are scaled by 10^(SNR/20).  Returns the study
    (see :func:`run_freqest_study`)."""
    study = run_freqest_study(config, snr_levels, FREQEST_MAX_ITERS)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    snr_levels = study["snr_levels"]
    rows = []
    for li, snr in enumerate(snr_levels):
        for t in range(config.trials):
            rows.append((float(snr), t, float(study["frob_diff"][li, t]),
                         float(study["l2_diff"][li, t])))
    _write_csv(out / "freqest_diffs.csv",
               ("snr_dbw", "trial", "frob_diff_scaled", "l2_diff_scaled"), rows)
    hist_rows = _histogram_rows("frobenius", snr_levels, study["frob_diff"])
    hist_rows += _histogram_rows("l2", snr_levels, study["l2_diff"])
    _write_csv(out / "freqest_hist.csv",
               ("norm", "snr_dbw", "bin_left", "bin_right", "count"), hist_rows)
    # the study reads no other config field: its sigma0 and budget are its own
    _write_json(out / "freqest_summary.json", {
        "config": {
            "experiment": config.experiment, "trials": config.trials, "seed": config.seed,
            "output_dir": str(out), "sigma0": FREQEST_SIGMA0,
            "max_iters": FREQEST_MAX_ITERS,
        },
        **{k: v for k, v in study.items() if k not in ("frob_diff", "l2_diff")},
        "snr_levels": snr_levels.tolist(),
    })
    return study


def load_solve_input(path):
    """Read a solve input: 3-column signal CSV, model JSON, or .npy matrix.

    Returns (F, subspace); signals and models build near-square Hankel
    data, a matrix is used as-is with the Hankel subspace of its shape.
    ValueError, naming the file, when the data has a non-finite entry or a
    model's samples overflow.
    """
    path = Path(path)
    if path.suffix == ".csv":
        F, sub = signal_to_hankel(load_signal_csv(path)[1])
    elif path.suffix == ".json":
        try:
            F, sub = signal_to_hankel(sample_signal(load_model_json(path)))
        except OverflowError as exc:
            raise ValueError(f"model JSON {path} overflows: {exc}") from None
    elif path.suffix == ".npy":
        F = np.load(path)
        if F.ndim != 2:
            raise ValueError("matrix input must be 2-d")
        if not np.issubdtype(F.dtype, np.number):
            raise ValueError(f"matrix input must be numeric, got dtype {F.dtype}")
        if F.dtype.char in "egG":  # numpy.linalg factors no half or long double
            raise ValueError(f"matrix input must not be float16, longdouble or clongdouble, "
                             f"got dtype {F.dtype}")
        sub = HankelSubspace(*F.shape)
    else:
        raise ValueError(f"unsupported input format {path.suffix!r}")
    if not np.all(np.isfinite(F)):
        raise ValueError(f"input {path} has non-finite entries")
    return F, sub


def cmd_solve(input_path, config: ExperimentConfig, variant: str, stop_tol: float,
              rank_tol: float):
    """Solve a user problem and persist the solution, multiplier, trace
    and a JSON summary, which counts the rows priced by a full SVD
    (``full_svds``) and the truncated-SVD passes (``passes``).

    The trace prices the exact primal value on rows 0, 2^j and the last
    row only (``primal_rows`` ``doubling``), so ``final_primal`` is exact,
    and bounds it on every row; ``certified_gap`` is the least of those
    bounds minus the greatest dual value."""
    if not 0 < rank_tol < 1:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    cfg = _method_config(variant, config.alpha, config.iters, stop_tol=stop_tol,
                         primal_rows="doubling")
    F, sub = load_solve_input(input_path)
    s0 = _resolve_sigma0(F, config.sigma0)
    obj = RankObjective(F, s0)
    res = solvers.run(obj, sub, cfg)

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    save_signal_csv(out / "x_star_vector.csv", sub.to_vector(res.X_star))
    np.save(out / "lambda_star.npy", res.Lambda_star)
    res.trace.write_csv(out / "trace.csv")
    _write_json(out / "summary.json", {
        "status": res.status,
        "converged": res.converged,
        "n_iters": res.n_iters,
        "sigma0": s0,
        "final_primal": float(res.trace.primal[-1]),
        "final_dual": float(res.trace.dual[-1]),
        "certified_gap": float(np.min(res.trace.primal_bound) - np.max(res.trace.dual)),
        "final_feas_residual": float(res.trace.feas_residual[-1]),
        "rank_x_star": numerical_rank(np.linalg.svd(res.X_star, compute_uv=False), rank_tol),
        "full_svds": res.full_svds,
        "passes": res.passes,
    })
    return res
