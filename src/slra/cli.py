"""Command line entry point.

Subcommands: converge, toy, freqest, solve.  Global flags set the seed,
trial/iteration counts, step weight, penalty level and output directory;
a JSON config file passed via --config overrides any flag with a value of
that flag's type.  ``--sigma0`` is a level or the spectral-gap heuristic
'gap:P', passed as given to ``harness.ExperimentConfig``, which checks it
and every other setting before any trial.  ``converge`` runs the
cosine-sum study once and writes its curves, ground-truth distances,
singular values and summary (see :mod:`slra.harness`).  ``freqest`` takes
its SNR levels as its own option (``--snr-levels``, a comma list); its
budget and sigma0 are ``harness.FREQEST_MAX_ITERS`` and ``FREQEST_SIGMA0``.
A study given a global flag it does not read exits with a usage error:
``freqest`` reads none of ``--iters``, ``--alpha`` and ``--sigma0``,
``toy``, a fixed table, reads none of those nor ``--trials`` and
``--seed``, and ``solve`` does not read ``--trials``, nor ``--alpha``
with ``--variant da``, whose steps decay on their own.  ``solve`` draws
no random numbers either, but accepts ``--seed`` so that a caller may
pass one seed to every subcommand, as the ``bench/`` solve workload does.
Exit codes: 0 success, 1 numerical failure or a trial worker that died,
2 usage error, which includes a request too large for memory.  The
SLRA_THREADS environment variable sets the trial worker count, one per
CPU the process may run on when unset; only the trial count caps it.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import harness, solvers
from .solvers import SolverNumericalError

USAGE_ERROR = 2
NUMERICAL_ERROR = 1

#: |SNR| in dB at which the amplitude ratio 10^(|SNR|/20) overflows a double
_SNR_LIMIT_DB = 20.0 * float(np.log10(np.finfo(float).max))

#: study -> global flags it does not read
_UNREAD_FLAGS = {
    "toy": ("iters", "alpha", "sigma0", "trials", "seed"),
    "freqest": ("iters", "alpha", "sigma0"),
    "solve": ("trials",),
}


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process: building
    it costs about ten times as much as parsing one request."""
    p = argparse.ArgumentParser(
        prog="slra",
        description="Structured low-rank approximation experiments "
                    "(dual ascent on Hankel subspaces).",
    )
    # None marks a flag not given; the defaults are ExperimentConfig's
    defaults = harness.ExperimentConfig
    p.add_argument("--seed", type=int, default=None,
                   help=f"base seed (default {defaults.seed})")
    p.add_argument("--trials", type=int, default=None,
                   help=f"Monte-Carlo trials per setting (default {defaults.trials})")
    p.add_argument("--iters", type=int, default=None,
                   help=f"iteration budget (default {defaults.iters})")
    p.add_argument("--alpha", type=float, default=None,
                   help=f"augmentation weight / fixed step (default {defaults.alpha})")
    p.add_argument("--sigma0", type=str, default=None,
                   help=f"penalty level or 'gap:P' (default {defaults.sigma0} for converge; solve "
                        f"requires it; freqest uses {harness.FREQEST_SIGMA0})")
    p.add_argument("--out", type=str, default=None,
                   help=f"output directory (default {defaults.output_dir})")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file whose entries override the flags")
    sub = p.add_subparsers(dest="experiment", required=True)
    for name in ("converge", "toy"):
        sub.add_parser(name)
    pf = sub.add_parser("freqest")
    levels = harness.FREQEST_SNR_LEVELS
    pf.add_argument("--snr-levels", type=str, default=None,
                    help=f"comma-separated SNR levels in dBW, each below {_SNR_LIMIT_DB:.2f} in "
                         f"modulus (default {levels[0]:g}, {levels[1]:g}, ..., {levels[-1]:g})")
    ps = sub.add_parser("solve")
    ps.add_argument("--input", required=True,
                    help="signal CSV (index,re,im), model JSON, or .npy matrix")
    ps.add_argument("--variant", choices=list(solvers.VARIANTS), default=solvers.DA,
                    help="dual ascent variant (default %(default)s)")
    ps.add_argument("--stop-tol", type=float, default=solvers.SolverConfig.stop_tol,
                    help="stop at a residual ||X - P(X)|| below this, an absolute level in "
                         "the data's units; 0 never stops early (default %(default)s)")
    ps.add_argument("--rank-tol", type=float, default=1e-9,
                    help="rank counts values above this share of the largest (default %(default)s)")
    return p


def _parse_snr_levels(value):
    """--snr-levels: a non-empty comma list of levels below ``_SNR_LIMIT_DB`` in modulus."""
    levels = tuple(float(v) for v in value.split(","))
    if not all(abs(level) < _SNR_LIMIT_DB for level in levels):
        raise ValueError(value)
    return levels


def _config_types(action):
    """JSON types a config entry may take for an argparse ``action``."""
    if action.dest == "sigma0":
        return (str, int, float)  # an explicit level or 'gap:P'
    return {int: (int,), float: (int, float)}.get(action.type, (str,))


def _apply_config_file(args, parser):
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(overrides, dict):
        parser.error(f"config file must hold a JSON object, got {overrides!r}")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for p in (parser, *sub.choices.values()) for a in p._actions}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr in (sub.dest, "config"):
            parser.error(f"config key {key!r} names no flag to override")
        if not hasattr(args, attr):
            parser.error(f"unknown config key {key!r}")
        types, choices = _config_types(actions[attr]), actions[attr].choices
        if isinstance(value, bool) or not isinstance(value, types):
            parser.error(f"config key {key!r} must be "
                         f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
        if choices is not None and value not in choices:
            parser.error(f"config key {key!r} must be one of "
                         f"{', '.join(map(repr, choices))}, got {value!r}")
        setattr(args, attr, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config_file(args, parser)

    unread = [f"--{name}" for name in _UNREAD_FLAGS.get(args.experiment, ())
              if getattr(args, name) is not None]
    if unread:
        parser.error(f"{args.experiment} does not read {', '.join(unread)}")
    if args.experiment == "solve" and args.variant == solvers.DA and args.alpha is not None:
        parser.error("solve --variant da does not read --alpha")

    # only the values given reach the harness, which owns the defaults
    given = {k: getattr(args, k) for k in ("trials", "iters", "alpha", "sigma0", "seed")
             if getattr(args, k) is not None}
    if args.out is not None:
        given["output_dir"] = args.out
    if args.experiment == "solve" and args.sigma0 is None:
        parser.error("solve requires --sigma0 (explicit value or gap:P)")

    freqest_args = {}
    if args.experiment == "freqest" and args.snr_levels is not None:
        try:
            freqest_args["snr_levels"] = _parse_snr_levels(args.snr_levels)
        except ValueError:
            parser.error(f"bad --snr-levels value {args.snr_levels!r}")

    try:
        config = harness.ExperimentConfig(args.experiment, **given)
        if args.experiment == "converge":
            report = harness.cmd_converge(config)
            for m, v in report.gt_distance.items():
                print(f"{m}: mean normalized distance {v:.4g}")
        elif args.experiment == "toy":
            rows = harness.cmd_toy(config)
            print("n,x,lambda")
            for n, x, lam in rows:
                print(f"{n},{x:+.0f},{lam:.12f}")
        elif args.experiment == "freqest":
            study = harness.cmd_freqest(config, **freqest_args)
            print(f"frobenius diff > 0 in {study['frob_positive_fraction']:.1%} "
                  f"of trials; l2 diff < 0 in {study['l2_negative_fraction']:.1%}")
        else:
            res = harness.cmd_solve(
                args.input, config, variant=args.variant,
                stop_tol=args.stop_tol, rank_tol=args.rank_tol,
            )
            print(f"status: {res.status} after {res.n_iters} iterations")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"error: the request does not fit in memory: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SolverNumericalError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except harness.TrialWorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
