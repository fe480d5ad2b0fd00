"""Command line entry point.

Subcommands: converge, singvals, gtdist, toy, freqest, solve.  Global
flags set the seed, trial/iteration counts, step weight, penalty level and
output directory; a JSON config file passed via --config overrides any
flag with a value of that flag's type.  Exit codes: 0 success, 1 numerical
failure, 2 usage error.  The SLRA_THREADS environment variable caps the
trial worker count.
"""

import argparse
import json
import sys

import numpy as np

from . import harness, solvers
from .solvers import ScheduleError, SolverNumericalError

USAGE_ERROR = 2
NUMERICAL_ERROR = 1


def _parse_sigma0(value):
    """--sigma0 accepts an explicit level ('2.5') or 'gap:P'."""
    if value.startswith("gap:"):
        return None, int(value[4:])
    return float(value), None


def build_parser():
    p = argparse.ArgumentParser(
        prog="slra",
        description="Structured low-rank approximation experiments "
                    "(dual ascent on Hankel subspaces).",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument("--trials", type=int, default=100,
                   help="Monte-Carlo trials per setting (default 100)")
    p.add_argument("--iters", type=int, default=100,
                   help="iteration budget (default 100)")
    p.add_argument("--alpha", type=float, default=0.1,
                   help="augmentation weight / fixed step (default 0.1)")
    p.add_argument("--sigma0", type=str, default=None,
                   help="penalty level: explicit value or 'gap:P' heuristic")
    p.add_argument("--out", type=str, default="out", help="output directory")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file whose entries override the flags")
    sub = p.add_subparsers(dest="experiment", required=True)
    for name in ("converge", "singvals", "gtdist", "toy", "freqest"):
        sub.add_parser(name)
    ps = sub.add_parser("solve")
    ps.add_argument("--input", required=True,
                    help="signal CSV (index,re,im), model JSON, or .npy matrix")
    ps.add_argument("--variant", choices=list(solvers.VARIANTS), default=solvers.DA)
    ps.add_argument("--stop-tol", type=float, default=1e-6)
    ps.add_argument("--rank-tol", type=float, default=1e-9)
    return p


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

    config = harness.ExperimentConfig(
        experiment=args.experiment,
        trials=args.trials,
        iters=args.iters,
        alpha=args.alpha,
        sigma0=sigma0,
        sigma0_gap_p=gap_p,
        seed=args.seed,
        output_dir=args.out,
    )

    try:
        if args.experiment == "converge":
            harness.cmd_converge(config)
        elif args.experiment == "singvals":
            harness.cmd_singvals(config)
        elif args.experiment == "gtdist":
            report = harness.cmd_gtdist(config)
            for m, v in report.gt_distance.items():
                print(f"{m}: mean normalized distance {v:.4g}")
        elif args.experiment == "toy":
            rows = harness.cmd_toy(config)
            print("n,x,lambda")
            for n, x, lam in rows:
                print(f"{n},{x:+.0f},{lam:.12f}")
        elif args.experiment == "freqest":
            report = harness.cmd_freqest(config)
            print(f"frobenius diff > 0 in {report.freqest['frob_positive_fraction']:.1%} "
                  f"of trials; l2 diff < 0 in {report.freqest['l2_negative_fraction']:.1%}")
        else:
            res = harness.cmd_solve(
                args.input, config, variant=args.variant,
                stop_tol=args.stop_tol, rank_tol=args.rank_tol,
            )
            print(f"status: {res.status} after {res.n_iters} iterations")
    except (ValueError, ScheduleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SolverNumericalError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
