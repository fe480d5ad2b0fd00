"""Experiment harness: seeded Monte-Carlo studies of the three solver
variants on random cosine-sum Hankel problems, the four-tone frequency
estimation comparison against ESPRIT, and a general solve entry point.

Trials fan out over a process pool (capped by the SLRA_THREADS environment
variable); every trial derives its own generator seed from the base seed
and the trial index, and aggregation runs in fixed trial order, so results
are bit-reproducible for any worker count.
"""

import contextlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover - optional speedup only
    threadpool_limits = None

from . import solvers
from .envelope import RankObjective, ToyObjective
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
from .solvers import SolverConfig, StepSchedule
from .subspace import HankelSubspace, ZeroSubspace

METHODS = (solvers.DA, solvers.ADA, solvers.MOD_ADA)

#: SNR grid of the frequency-estimation study, in dBW
FREQEST_SNR_LEVELS = tuple(np.arange(0.0, 25.0 + 1e-9, 2.5))

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
        self.output_dir = Path(self.output_dir)

    def to_json_dict(self):
        d = asdict(self)
        d["output_dir"] = str(d["output_dir"])
        return d


@dataclass
class AggregateReport:
    """Arithmetic means over trials; only the fields the experiment
    produces are filled in."""

    trials: int
    primal_curves: Optional[dict] = None   # method -> array over iterations
    dual_curves: Optional[dict] = None
    gt_distance: Optional[dict] = None     # method -> mean normalized distance
    singvals: Optional[dict] = None        # series -> mean 10 leading values
    freqest: Optional[dict] = None


def _worker_count() -> int:
    env = os.environ.get("SLRA_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


_worker_limiter = None


def _pin_blas_single_threaded():
    # at the matrix sizes used here, threaded BLAS kernels are slower than
    # single-threaded ones and oversubscribe the trial worker pool
    global _worker_limiter
    if threadpool_limits is not None:
        _worker_limiter = threadpool_limits(limits=1)


def _map_trials(fn, items):
    items = list(items)
    workers = min(_worker_count(), len(items)) if items else 1
    if workers <= 1:
        ctx = (threadpool_limits(limits=1) if threadpool_limits is not None
               else contextlib.nullcontext())
        with ctx:
            return [fn(it) for it in items]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_pin_blas_single_threaded
    ) as ex:
        chunk = max(1, len(items) // (4 * workers))
        return list(ex.map(fn, items, chunksize=chunk))


def _pad_to(a, length):
    if a.size >= length:
        return a[:length]
    return np.concatenate([a, np.full(length - a.size, a[-1])])


def _method_config(method, alpha, iters, track_primal=True, stop_tol=_NO_STOP):
    common = dict(max_iters=iters, stop_tol=stop_tol, track_primal=track_primal)
    if method == solvers.ADA:
        return SolverConfig.ada(alpha, **common)
    if method == solvers.MOD_ADA:
        return SolverConfig.mod_ada(alpha, **common)
    # da, or an unknown variant that SolverConfig rejects
    return SolverConfig(method, StepSchedule.harmonic(), **common)


def _cossum_trial(args):
    """One random-instance run of all three methods; returns curves,
    normalized ground-truth distances and leading singular values."""
    (trial_seed, iters, alpha, sigma0, gap_p, noise_sigma, track_primal) = args
    rng = np.random.default_rng(trial_seed)
    f = gen_cos_sum(rng)
    rows, cols = 101, 100
    sub = HankelSubspace(rows, cols)
    h_gt = sub.from_vector(f)
    noisy = add_noise(h_gt, NoiseSpec(sigma=noise_sigma), rng=rng)
    if sigma0 is not None:
        s0 = sigma0
    elif gap_p is not None:
        s0 = sigma0_heuristic(noisy, gap_p)
    else:
        raise ValueError("need sigma0 or a gap heuristic order")
    obj = RankObjective(noisy, s0)
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
        res = solvers.run(obj, sub, _method_config(method, alpha, iters, track_primal))
        prim[i] = _pad_to(res.trace.primal, n_rows)
        dual[i] = _pad_to(res.trace.dual, n_rows)
        # normalized distance ||H - H_gt|| / ||H_gt||; the tabulated
        # reference values correspond to this unsquared ratio
        dist[i] = float(np.linalg.norm(res.X_star - h_gt)) / gt_norm
        sv_out[i] = np.linalg.svd(res.X_star, compute_uv=False)[:10]
    out.update(primal=prim, dual=dual, dist=dist, sv_out=sv_out, sigma0=s0)
    return out


def run_cossum_study(config: ExperimentConfig, track_primal: bool = True) -> AggregateReport:
    """Random cosine-sum protocol: rank-8 101x100 Hankel ground truth,
    elementwise Gaussian noise, all three methods for a fixed iteration
    budget."""
    items = [
        (config.seed + t, config.iters, config.alpha, config.sigma0,
         config.sigma0_gap_p, config.noise_sigma, track_primal)
        for t in range(config.trials)
    ]
    results = _map_trials(_cossum_trial, items)
    mean = lambda key: np.mean(np.stack([r[key] for r in results]), axis=0)
    prim, dual = mean("primal"), mean("dual")
    sv_out = mean("sv_out")
    report = AggregateReport(
        trials=config.trials,
        primal_curves={m: prim[i] for i, m in enumerate(METHODS)},
        dual_curves={m: dual[i] for i, m in enumerate(METHODS)},
        gt_distance=dict(zip(METHODS, mean("dist"))),
        singvals={
            "noisy": mean("sv_noisy"),
            "ground_truth": mean("sv_gt"),
            **{m: sv_out[i] for i, m in enumerate(METHODS)},
        },
    )
    return report


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
    """Mean primal and dual objective curves for the three methods."""
    report = run_cossum_study(config, track_primal=True)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for m in METHODS:
        for n in range(config.iters + 1):
            rows.append((m, n, float(report.primal_curves[m][n]),
                         float(report.dual_curves[m][n])))
    _write_csv(out / "converge_curves.csv", ("method", "n", "mean_primal", "mean_dual"), rows)
    _write_json(out / "converge_summary.json", {
        "config": config.to_json_dict(),
        "final_gap": {
            m: float(report.primal_curves[m][-1] - report.dual_curves[m][-1])
            for m in METHODS
        },
    })
    return report


def cmd_gtdist(config: ExperimentConfig) -> AggregateReport:
    """Mean normalized distance ||H - H_gt|| / ||H_gt|| to the ground
    truth per method."""
    report = run_cossum_study(config, track_primal=False)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    rows = [(m, float(config.alpha), float(report.gt_distance[m]), config.trials)
            for m in METHODS]
    _write_csv(out / "gtdist.csv",
               ("method", "alpha", "mean_normalized_distance", "trials"), rows)
    _write_json(out / "gtdist.json", {
        "config": config.to_json_dict(),
        "mean_normalized_distance": {m: float(report.gt_distance[m]) for m in METHODS},
    })
    return report


def cmd_singvals(config: ExperimentConfig) -> AggregateReport:
    """Mean 10 leading singular values of data, truth and method outputs."""
    report = run_cossum_study(config, track_primal=False)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for series, vals in report.singvals.items():
        for j, v in enumerate(vals, start=1):
            rows.append((series, j, float(v)))
    _write_csv(out / "singvals.csv", ("series", "j", "mean_sigma"), rows)
    return report


def toy_table(n_iters: int = 5):
    """Scalar-toy dual ascent: returns [(n, x_n, lambda_n)] with harmonic
    steps, and cross-checks the solver trace on the same problem."""
    obj = ToyObjective()
    lam = np.zeros((1, 1))
    rows = []
    for n in range(1, n_iters + 1):
        upd = obj.update(lam, 0.0)
        lam = lam + (1.0 / n) * upd.x  # the complement of {0} is everything
        rows.append((n, float(upd.x[0, 0]), float(lam[0, 0])))

    res = solvers.run(
        ToyObjective(), ZeroSubspace(1, 1),
        SolverConfig.da(max_iters=n_iters, stop_tol=_NO_STOP),
    )
    for (n, _, lam_n) in rows:
        if abs(abs(lam_n) - res.trace.lambda_norm[n]) > 1e-12:
            raise AssertionError("solver trace disagrees with the direct recursion")
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
    _write_csv(out / "toy_table.csv", ("n", "x", "lambda"),
               [(n, float(x), float(l)) for n, x, l in rows])
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
    s0 = sigma0_heuristic(F, 4)
    obj = RankObjective(F, s0)
    cfg = SolverConfig.da(
        StepSchedule.sqrt_decay(), max_iters=max_iters, stop_tol=1e-6,
        track_primal=False,
    )
    res = solvers.run(obj, sub, cfg)
    frob_da = float(np.linalg.norm(res.X_star - F))
    l2_da = float(np.linalg.norm(sub.to_vector(res.X_star) - noisy))
    frob_es, l2_es = esprit_hankel_error(
        noisy, noisy, 4, rows, cols, model.delta, model.indices
    )
    scale = 10.0 ** (snr_dbw / 20.0)
    return (
        (frob_es - frob_da) * scale,
        (l2_es - l2_da) * scale,
        int(res.converged),
        res.n_iters,
    )


def run_freqest_study(config: ExperimentConfig, snr_levels=FREQEST_SNR_LEVELS,
                      max_iters: int = 2000):
    """Frequency-estimation comparison over the SNR grid.

    Returns per-trial scaled error differences (ESPRIT minus dual ascent;
    positive Frobenius difference means dual ascent wins) keyed by SNR.
    """
    items = []
    for li, snr in enumerate(snr_levels):
        for t in range(config.trials):
            items.append((config.seed + li * config.trials + t, float(snr), max_iters))
    results = _map_trials(_freqest_trial, items)
    frob = np.array([r[0] for r in results]).reshape(len(snr_levels), config.trials)
    l2 = np.array([r[1] for r in results]).reshape(len(snr_levels), config.trials)
    conv = np.array([r[2] for r in results], dtype=bool)
    iters = np.array([r[3] for r in results])
    return {
        "snr_levels": np.asarray(snr_levels, dtype=float),
        "frob_diff": frob,
        "l2_diff": l2,
        "frob_positive_fraction": float(np.mean(frob > 0)),
        "l2_negative_fraction": float(np.mean(l2 < 0)),
        "converged_fraction": float(np.mean(conv)),
        "mean_iters": float(np.mean(iters)),
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


def cmd_freqest(config: ExperimentConfig) -> AggregateReport:
    """Run the SNR sweep and emit raw differences, histogram bins and a
    summary; differences are scaled by 10^(SNR/20)."""
    study = run_freqest_study(config)
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
    _write_json(out / "freqest_summary.json", {
        "config": config.to_json_dict(),
        "frob_positive_fraction": study["frob_positive_fraction"],
        "l2_negative_fraction": study["l2_negative_fraction"],
        "converged_fraction": study["converged_fraction"],
        "mean_iters": study["mean_iters"],
    })
    return AggregateReport(trials=config.trials, freqest=study)


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
    and a JSON summary."""
    F, sub = load_solve_input(input_path)
    if config.sigma0 is not None:
        s0 = config.sigma0
    elif config.sigma0_gap_p is not None:
        s0 = sigma0_heuristic(F, config.sigma0_gap_p)
    else:
        raise ValueError("solve needs an explicit sigma0 or a gap heuristic order")
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
    })
    return res
