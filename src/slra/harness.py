"""Experiment harness: seeded Monte-Carlo studies of the three solver
variants on random cosine-sum Hankel problems, the four-tone frequency
estimation comparison against ESPRIT, the scalar toy table, and a general
solve entry point.

One cosine-sum run (``cmd_converge``) writes all three views of that
study: the mean primal and dual curves (``converge_curves.csv``), the mean
normalized distance to the ground truth (``gtdist.csv``), the mean leading
singular values (``singvals.csv``), and a summary with the config, final
gaps and distances (``converge_summary.json``).

Trials fan out over a process pool (capped by the SLRA_THREADS environment
variable); every trial derives its own generator seed from the base seed
and the trial index, and aggregation runs in fixed trial order.  Trials
run on one OpenBLAS thread, in the pool's workers and in this process
alike, so results are bit-reproducible for any worker count wherever
that pinning works: with numpy's OpenBLAS.  Elsewhere a note on stderr
says that nothing is pinned, and the last digits may then follow the
BLAS thread count.
"""

import contextlib
import ctypes
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import solvers
from .envelope import RankObjective, toy_tilted_minimizers
from .esprit import esprit_hankel_error
from .matops import numerical_rank
from .signals import (
    NoiseSpec,
    add_noise,
    four_tone_model,
    gen_cos_sum,
    load_model_json,
    load_signal_csv,
    sample_signal,
    save_signal_csv,
    sigma0_heuristic,
    signal_to_hankel,
)
from .solvers import SolverConfig
from .subspace import HankelSubspace

METHODS = (solvers.DA, solvers.ADA, solvers.MOD_ADA)

#: SNR grid of the frequency-estimation study, in dBW, its iteration
#: budget per trial, and the order of the spectral-gap heuristic that sets
#: its sigma0 (one per tone)
FREQEST_SNR_LEVELS = tuple(np.arange(0.0, 25.0 + 1e-9, 2.5))
FREQEST_MAX_ITERS = 2000
FREQEST_GAP_P = 4

#: exact multiplier values of the first five scalar-toy iterations
TOY_LAMBDA_TABLE = (1.0, 1.0 / 2.0, 1.0 / 6.0, -1.0 / 12.0, 7.0 / 60.0)

#: default penalty level of the cosine-sum protocol.  A fixed level below
#: the noise-bulk edge (~1.9 for 0.1-noise on 101x100) keeps the initial
#: hard threshold from removing all noise directions at once, which is the
#: regime the reference distance table was produced in; the spectral-gap
#: heuristic would force an exact rank-8 first iterate and erase the slow
#: fixed-step behaviour the table documents.
COSSUM_SIGMA0 = 0.8

#: never-satisfied residual threshold: forces a fixed iteration count
_NO_STOP = 1e-300


@dataclass
class ExperimentConfig:
    """Shared experiment parameters; defaults reproduce the desk-scale
    protocols (100 trials instead of the paper-scale counts)."""

    experiment: str
    trials: int = 100
    iters: int = 100
    alpha: float = 0.1
    sigma0: Optional[float] = COSSUM_SIGMA0  # explicit penalty level
    sigma0_gap_p: Optional[int] = None       # or spectral-gap heuristic order
    noise_sigma: Optional[float] = 0.1
    seed: int = 0
    output_dir: Path = Path("out")

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        self.output_dir = Path(self.output_dir)

    def to_json_dict(self):
        d = asdict(self)
        d["output_dir"] = str(d["output_dir"])
        return d


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
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"SLRA_THREADS must be an integer, got {env!r}") from None
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


def _pin_blas_single_threaded():
    # at the matrix sizes used here, threaded BLAS kernels are slower than
    # single-threaded ones and oversubscribe the trial worker pool
    threads = _openblas_threads()
    if threads is not None:
        threads[1](1)


@contextlib.contextmanager
def _single_blas_thread():
    """One BLAS thread inside the block, the previous count after it."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _map_trials(fn, items):
    items = list(items)
    workers = min(_worker_count(), len(items)) if items else 1
    if workers <= 1:
        with _single_blas_thread():
            return [fn(it) for it in items]
    # imported here, so that a run without a pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_pin_blas_single_threaded
    ) as ex:
        chunk = max(1, len(items) // (4 * workers))
        return list(ex.map(fn, items, chunksize=chunk))


def _pad_to(a, length):
    if a.size >= length:
        return a[:length]
    return np.concatenate([a, np.full(length - a.size, a[-1])])


def _method_config(method, alpha, iters, stop_tol=_NO_STOP):
    alpha_reg = 0.0 if method == solvers.DA else alpha
    return SolverConfig(method, alpha_reg, max_iters=iters, stop_tol=stop_tol)


def _resolve_sigma0(F, sigma0, gap_p):
    """Penalty level: ``sigma0`` when given, else the spectral-gap
    heuristic of order ``gap_p`` on F."""
    if sigma0 is not None:
        return sigma0
    if gap_p is not None:
        return sigma0_heuristic(F, gap_p)
    raise ValueError("need an explicit sigma0 or a gap heuristic order")


def _cossum_trial(args):
    """One random-instance run of all three methods; returns curves,
    normalized ground-truth distances and leading singular values."""
    (trial_seed, iters, alpha, sigma0, gap_p, noise_sigma) = args
    rng = np.random.default_rng(trial_seed)
    f = gen_cos_sum(rng)
    rows, cols = 101, 100
    sub = HankelSubspace(rows, cols)
    h_gt = sub.from_vector(f)
    noisy = add_noise(h_gt, NoiseSpec(sigma=noise_sigma), rng=rng)
    obj = RankObjective(noisy, _resolve_sigma0(noisy, sigma0, gap_p))
    gt_norm = float(np.linalg.norm(h_gt))

    out = {
        "sv_noisy": np.linalg.svd(noisy, compute_uv=False)[:10],
        "sv_gt": np.linalg.svd(h_gt, compute_uv=False)[:10],
    }
    n_rows = iters + 1
    prim = np.empty((len(METHODS), n_rows))
    dual = np.empty((len(METHODS), n_rows))
    dist = np.empty(len(METHODS))
    sv_out = np.empty((len(METHODS), 10))
    for i, method in enumerate(METHODS):
        res = solvers.run(obj, sub, _method_config(method, alpha, iters))
        prim[i] = _pad_to(res.trace.primal, n_rows)
        dual[i] = _pad_to(res.trace.dual, n_rows)
        # normalized distance ||H - H_gt|| / ||H_gt||; the tabulated
        # reference values correspond to this unsquared ratio
        dist[i] = float(np.linalg.norm(res.X_star - h_gt)) / gt_norm
        sv_out[i] = np.linalg.svd(res.X_star, compute_uv=False)[:10]
    out.update(primal=prim, dual=dual, dist=dist, sv_out=sv_out)
    return out


def run_cossum_study(config: ExperimentConfig) -> AggregateReport:
    """Random cosine-sum protocol: rank-8 101x100 Hankel ground truth,
    elementwise Gaussian noise, all three methods for a fixed iteration
    budget."""
    items = [
        (config.seed + t, config.iters, config.alpha, config.sigma0,
         config.sigma0_gap_p, config.noise_sigma)
        for t in range(config.trials)
    ]
    results = _map_trials(_cossum_trial, items)
    mean = lambda key: np.mean(np.stack([r[key] for r in results]), axis=0)
    prim, dual = mean("primal"), mean("dual")
    sv_out = mean("sv_out")
    return AggregateReport(
        primal_curves={m: prim[i] for i, m in enumerate(METHODS)},
        dual_curves={m: dual[i] for i, m in enumerate(METHODS)},
        gt_distance=dict(zip(METHODS, mean("dist"))),
        singvals={
            "noisy": mean("sv_noisy"),
            "ground_truth": mean("sv_gt"),
            **{m: sv_out[i] for i, m in enumerate(METHODS)},
        },
    )


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
    """Mean primal and dual curves, mean normalized distance
    ||H - H_gt|| / ||H_gt|| to the ground truth, and mean leading singular
    values of data, truth and the three methods, from one study run."""
    report = run_cossum_study(config)
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
        "config": config.to_json_dict(),
        "final_gap": {
            m: float(report.primal_curves[m][-1] - report.dual_curves[m][-1])
            for m in METHODS
        },
        "mean_normalized_distance": dist,
    })
    return report


def toy_table(n_iters: int = 5):
    """Plain dual ascent on the scalar toy |x^2 - 1| subject to x = 0, with
    harmonic steps: returns [(n, x_n, lambda_n)], x_n the larger minimizer
    of |x^2 - 1| + lambda_{n-1} x and lambda_n = lambda_{n-1} + x_n / n
    (the complement of {0} is everything, so the whole of x_n enters)."""
    lam, rows = 0.0, []
    for n in range(1, n_iters + 1):
        x = float(max(toy_tilted_minimizers(lam)))
        lam = lam + (1.0 / n) * x
        rows.append((n, x, lam))
    return rows


def cmd_toy(config: ExperimentConfig):
    """Print and persist the five-iteration toy table; the multiplier
    column must match the known exact values to 1e-12."""
    rows = toy_table(5)
    for (n, _, lam_n) in rows:
        ref = TOY_LAMBDA_TABLE[n - 1]
        if abs(lam_n - ref) > 1e-12:
            raise AssertionError(f"toy multiplier {lam_n} != {ref} at n={n}")
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "toy_table.csv", ("n", "x", "lambda"), rows)
    return rows


def _freqest_trial(args):
    """One (SNR level, trial) comparison of dual ascent and ESPRIT.

    Both methods approximate the same noisy signal; errors are the
    residuals against that data (the vector generating the Hankel matrix
    being approximated), in Frobenius norm on the matrices and in l2 on
    the generating vectors, scaled by 10^(SNR/20)."""
    (trial_seed, snr_dbw, max_iters) = args
    model = four_tone_model()
    f = sample_signal(model)
    rng = np.random.default_rng(trial_seed)
    noisy = add_noise(f, NoiseSpec(snr_dbw=snr_dbw), rng=rng)
    rows = cols = 129
    sub = HankelSubspace(rows, cols)
    F = sub.from_vector(noisy)
    s0 = sigma0_heuristic(F, FREQEST_GAP_P)
    obj = RankObjective(F, s0)
    cfg = SolverConfig(solvers.DA, max_iters=max_iters, stop_tol=1e-6,
                       track_primal=False, sqrt_steps=True)
    res = solvers.run(obj, sub, cfg)
    frob_da = float(np.linalg.norm(res.X_star - F))
    l2_da = float(np.linalg.norm(sub.to_vector(res.X_star) - noisy))
    frob_es, l2_es = esprit_hankel_error(noisy, 4, rows, cols, model.delta, model.indices)
    scale = 10.0 ** (snr_dbw / 20.0)
    return (
        (frob_es - frob_da) * scale,
        (l2_es - l2_da) * scale,
        int(res.converged),
        res.n_iters,
        res.full_svds,
        res.passes,
    )


def _svd_use(rows, full_svds, passes):
    """The share of ``rows`` priced by a full SVD, and the subspace
    iteration passes per truncated row (None when no row was truncated)."""
    rows, full_svds, passes = int(rows), int(full_svds), int(passes)
    truncated = rows - full_svds
    return {
        "full_svd_fraction": full_svds / rows,
        "passes_per_truncated_row": passes / truncated if truncated else None,
    }


def run_freqest_study(config: ExperimentConfig, snr_levels=FREQEST_SNR_LEVELS,
                      max_iters: int = FREQEST_MAX_ITERS):
    """Frequency-estimation comparison over the SNR grid.

    Returns per-trial scaled error differences (ESPRIT minus dual ascent;
    positive Frobenius difference means dual ascent wins) keyed by SNR,
    the share of solver rows priced by a full rather than a truncated
    SVD, and the subspace iteration passes per truncated row (None when
    no row was truncated), pooled and under ``levels`` per SNR level.
    """
    items = []
    for li, snr in enumerate(snr_levels):
        for t in range(config.trials):
            items.append((config.seed + li * config.trials + t, float(snr), max_iters))
    results = _map_trials(_freqest_trial, items)
    # one row per SNR level, one column per trial
    field = lambda i: np.array([r[i] for r in results]).reshape(len(snr_levels), config.trials)
    frob, l2, iters = field(0), field(1), field(3)
    rows = np.sum(iters + 1, axis=1)
    full_svds, passes = np.sum(field(4), axis=1), np.sum(field(5), axis=1)
    return {
        "snr_levels": np.asarray(snr_levels, dtype=float),
        "frob_diff": frob,
        "l2_diff": l2,
        "frob_positive_fraction": float(np.mean(frob > 0)),
        "l2_negative_fraction": float(np.mean(l2 < 0)),
        "converged_fraction": float(np.mean(field(2))),
        "mean_iters": float(np.mean(iters)),
        **_svd_use(np.sum(rows), np.sum(full_svds), np.sum(passes)),
        "levels": [{"snr_dbw": float(snr), **_svd_use(*counts)}
                   for snr, *counts in zip(snr_levels, rows, full_svds, passes)],
    }


def _histogram_rows(norm_name, snr_levels, diffs, n_bins=24):
    lo, hi = float(np.min(diffs)), float(np.max(diffs))
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, n_bins + 1)
    rows = []
    for li, snr in enumerate(snr_levels):
        counts, _ = np.histogram(diffs[li], bins=edges)
        for b in range(n_bins):
            rows.append((norm_name, float(snr), float(edges[b]),
                         float(edges[b + 1]), int(counts[b])))
    return rows


def cmd_freqest(config: ExperimentConfig, snr_levels=FREQEST_SNR_LEVELS,
                max_iters: int = FREQEST_MAX_ITERS) -> dict:
    """Run the SNR sweep and emit raw differences, histogram bins and a
    summary; differences are scaled by 10^(SNR/20).  Returns the study
    (see :func:`run_freqest_study`)."""
    study = run_freqest_study(config, snr_levels, max_iters)
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
            "output_dir": str(out), "sigma0": f"gap:{FREQEST_GAP_P}", "max_iters": max_iters,
        },
        "snr_levels": [float(v) for v in snr_levels],
        "frob_positive_fraction": study["frob_positive_fraction"],
        "l2_negative_fraction": study["l2_negative_fraction"],
        "converged_fraction": study["converged_fraction"],
        "mean_iters": study["mean_iters"],
        "full_svd_fraction": study["full_svd_fraction"],
        "passes_per_truncated_row": study["passes_per_truncated_row"],
        "levels": study["levels"],
    })
    return study


def load_solve_input(path):
    """Read a solve input: 3-column signal CSV, model JSON, or .npy matrix.

    Returns (F, subspace); signals and models build near-square Hankel
    data, a matrix is used as-is with the Hankel subspace of its shape.
    """
    path = Path(path)
    if path.suffix == ".csv":
        _, f = load_signal_csv(path)
        F = signal_to_hankel(f)
    elif path.suffix == ".json":
        f = sample_signal(load_model_json(path))
        F = signal_to_hankel(f)
    elif path.suffix == ".npy":
        F = np.load(path)
        if F.ndim != 2:
            raise ValueError("matrix input must be 2-d")
    else:
        raise ValueError(f"unsupported input format {path.suffix!r}")
    return F, HankelSubspace(*F.shape)


def cmd_solve(input_path, config: ExperimentConfig, variant: str = solvers.DA,
              stop_tol: float = 1e-6, rank_tol: float = 1e-9):
    """Solve a user problem and persist the solution, multiplier, trace
    and a JSON summary, which counts the rows priced by a full SVD
    (``full_svds``) and the truncated-SVD passes (``passes``)."""
    if not 0 < rank_tol < 1:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    F, sub = load_solve_input(input_path)
    s0 = _resolve_sigma0(F, config.sigma0, config.sigma0_gap_p)
    obj = RankObjective(F, s0)
    cfg = _method_config(variant, config.alpha, config.iters, stop_tol=stop_tol)
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
        "final_feas_residual": float(res.trace.feas_residual[-1]),
        "rank_x_star": numerical_rank(res.X_star, rank_tol),
        "full_svds": res.full_svds,
        "passes": res.passes,
    })
    return res
