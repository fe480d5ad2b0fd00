"""Command line entry point.

Subcommands: converge, toy, freqest, solve.  Global flags set the seed,
trial/iteration counts, step weight, penalty level and output directory;
a JSON config file passed via --config overrides any flag with a value of
that flag's type.  ``converge`` runs the cosine-sum study once and writes
its curves, ground-truth distances, singular values and summary (see
:mod:`slra.harness`).  ``freqest`` takes its SNR levels as its own option
(``--snr-levels``, a comma list); its budget is
``harness.FREQEST_MAX_ITERS`` and its sigma0 the gap heuristic.
A study given a global flag it does not read exits with a usage error:
``freqest`` reads none of ``--iters``, ``--alpha`` and ``--sigma0``,
``toy``, a fixed table, reads none of those nor ``--trials`` and
``--seed``, and ``solve`` does not read ``--trials``, nor ``--alpha``
with ``--variant da``, whose steps decay on their own.  ``solve`` draws
no random numbers either, but accepts ``--seed`` so that a caller may
pass one seed to every subcommand, as the ``bench/`` solve workload does.
Exit codes:
0 success, 1 numerical failure, 2 usage error.  The SLRA_THREADS
environment variable caps the trial worker count.
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

#: study -> global flags it does not read
_UNREAD_FLAGS = {
    "toy": ("iters", "alpha", "sigma0", "trials", "seed"),
    "freqest": ("iters", "alpha", "sigma0"),
    "solve": ("trials",),
}


def _parse_sigma0(value):
    """--sigma0 accepts an explicit level ('2.5') or 'gap:P'."""
    if value.startswith("gap:"):
        return None, int(value[4:])
    return float(value), None


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
    p.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    p.add_argument("--trials", type=int, default=None,
                   help="Monte-Carlo trials per setting (default 100)")
    p.add_argument("--iters", type=int, default=None,
                   help="iteration budget (default 100)")
    p.add_argument("--alpha", type=float, default=None,
                   help="augmentation weight / fixed step (default 0.1)")
    p.add_argument("--sigma0", type=str, default=None,
                   help="penalty level: explicit value or 'gap:P' heuristic")
    p.add_argument("--out", type=str, default="out", help="output directory")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file whose entries override the flags")
    sub = p.add_subparsers(dest="experiment", required=True)
    for name in ("converge", "toy"):
        sub.add_parser(name)
    pf = sub.add_parser("freqest")
    pf.add_argument("--snr-levels", type=str, default=None,
                    help="comma-separated SNR levels in dBW (default 0, 2.5, ..., 25)")
    ps = sub.add_parser("solve")
    ps.add_argument("--input", required=True,
                    help="signal CSV (index,re,im), model JSON, or .npy matrix")
    ps.add_argument("--variant", choices=list(solvers.VARIANTS), default=solvers.DA)
    ps.add_argument("--stop-tol", type=float, default=1e-6)
    ps.add_argument("--rank-tol", type=float, default=1e-9)
    return p


def _parse_snr_levels(value):
    """--snr-levels: a non-empty comma list of finite numbers."""
    levels = tuple(float(v) for v in value.split(","))
    if not all(np.isfinite(levels)):
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
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for p in (parser, *sub.choices.values()) for a in p._actions}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"unknown config key {key!r}")
        types = _config_types(actions[attr])
        if isinstance(value, bool) or not isinstance(value, types):
            parser.error(f"config key {key!r} must be "
                         f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
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

    if args.sigma0 is not None:
        try:
            sigma0, gap_p = _parse_sigma0(str(args.sigma0))
        except ValueError:
            parser.error(f"bad --sigma0 value {args.sigma0!r}")
    elif args.experiment == "solve":
        parser.error("solve requires --sigma0 (explicit value or gap:P)")
    else:
        # the cosine-sum protocol default; freqest pins its own heuristic
        sigma0, gap_p = harness.COSSUM_SIGMA0, None

    if args.experiment == "freqest":
        snr_levels = harness.FREQEST_SNR_LEVELS
        if args.snr_levels is not None:
            try:
                snr_levels = _parse_snr_levels(args.snr_levels)
            except ValueError:
                parser.error(f"bad --snr-levels value {args.snr_levels!r}")

    try:
        config = harness.ExperimentConfig(
            experiment=args.experiment,
            **{k: getattr(args, k) for k in ("trials", "iters", "alpha", "seed")
               if getattr(args, k) is not None},
            sigma0=sigma0,
            sigma0_gap_p=gap_p,
            output_dir=args.out,
        )
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
            study = harness.cmd_freqest(config, snr_levels)
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
    except (SolverNumericalError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
