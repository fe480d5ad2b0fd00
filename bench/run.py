"""Benchmark of the slra studies and the solve entry point.

    python3 bench/run.py --workload {converge,freqest,solve} --seed N \
        --seconds S --trace {0,1}

Runs one workload in this process for about S seconds of whole rounds and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  End-to-end times are scaled by the machine's speed during
the run, measured with a fixed calibration kernel (see
``workloads.Calibration``).  A fuller record (environment, raw samples,
unscaled metrics) is written to ``bench/out/``, and with ``--trace 1`` the
spans as well.  BLAS and the trial pool are pinned to one thread before
numpy loads.
"""

import os
import sys
import time

T_START = time.perf_counter()

# pinned before numpy loads; set-up probes inherit them
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SLRA_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: set-ups measured in child processes, besides the one of this process
SETUP_PROBES = 4


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("converge", "freqest", "solve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def _set_up(args, workdir):
    """Imports, input generation and warm-up; returns the workload and the
    seconds since this process started running Python code."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.make(args.workload)
    workload.prepare(args.seed, workdir)
    workload.warm_up()
    return workload, time.perf_counter() - T_START


def _probe_setups(args):
    """Set-up times of fresh processes that do the same set-up and exit."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-probe", str(i)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def _run_rounds(workload, seconds, tracer, calibration):
    """Whole rounds until ``seconds`` have passed.  A traced run alternates
    untraced and traced rounds on the same inputs and ends on a traced one."""
    from checks import CheckFailed
    from workloads import Meter

    step = 2 if tracer else 1
    rounds = []
    start = time.perf_counter()
    try:
        while not rounds or len(rounds) % step or time.perf_counter() - start < seconds:
            key, traced = divmod(len(rounds), step)
            meter = Meter(tracer if traced else None, calibration=calibration)
            rounds.append((bool(traced), meter))
            workload.run_round(key, meter)
    except CheckFailed as exc:
        return rounds, str(exc)
    return rounds, None


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def _end_to_end(rounds, setups, gaps, scale):
    """End-to-end metrics; every time is multiplied by ``scale``."""
    meters = [m for _, m in rounds]
    lat_ms = [1e3 * scale * w for m in meters for w in m.wall]
    return {
        "setup_s": (scale * statistics.median(setups), "s"),
        "wall_s": (scale * statistics.mean(sum(m.wall) for m in meters), "s"),
        "cpu_s": (scale * statistics.mean(sum(m.cpu) for m in meters), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "solver_iters": (statistics.mean(m.iters for m in meters), "count"),
        "duality_gap": (statistics.mean(gaps), "1"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p95_ms": (_percentile(lat_ms, 95), "ms"),
    }


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us", "iters": "count",
                   "us_per_iter": "us", "degenerate": "count", "active_mean": "count"}


def _per_layer(rounds, tracer, calibration):
    traced = [m for t, m in rounds if t]
    plain = [m for t, m in rounds if not t]
    traced_wall = sum(sum(m.wall) for m in traced)
    plain_wall = sum(sum(m.wall) for m in plain)
    _, self_t, root_total = tracer.self_times()
    if min(self_t, default=0.0) < -1e-9 or root_total > traced_wall + 1e-9:
        raise RuntimeError("spans do not nest inside the timed operations")
    n = len(traced)
    metrics = {k: (v, PER_LAYER_UNITS[k.rsplit(".", 1)[1]])
               for k, v in tracer.layer_metrics(n).items()}
    metrics["trace.wall_s"] = (traced_wall / n, "s")
    metrics["trace.untraced_s"] = ((traced_wall - root_total) / n, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0), "%")
    metrics["calibration.kernel_ms"] = (1e3 * statistics.median(calibration.times), "ms")
    return metrics


def _blas_threads():
    """Thread count OpenBLAS reports at run time, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_sha():
    """Commit of the checkout from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime_threads": _blas_threads()},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def main(argv=None):
    args = _parse_args(argv)
    if not (ROOT / "src" / "slra" / "__init__.py").is_file():
        print(f"error: no slra package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    tag = f"{args.workload}-seed{args.seed}"
    if args.setup_probe is not None:
        _, setup = _set_up(args, OUT / f"{tag}-probe{args.setup_probe}")
        print(f"{setup:.9f}")
        return 0

    workload, setup = _set_up(args, OUT / tag)
    from checks import CheckFailed
    from tracing import Tracer
    from workloads import Calibration, Meter

    tracer = Tracer() if args.trace else None
    calibration = Calibration(*workload.kernel)
    rounds, error = _run_rounds(workload, args.seconds, tracer, calibration)
    reference = Meter(certify=True)
    if error is None and tracer is None:
        try:
            workload.reference(reference)
        except CheckFailed as exc:
            error = str(exc)
    unscaled = None
    if error is not None:
        print(f"check failed: {error}", file=sys.stderr)
        metrics = {}
    elif tracer is not None:
        metrics = _per_layer(rounds, tracer, calibration)
    else:
        setups = [setup] + _probe_setups(args)
        metrics = _end_to_end(rounds, setups, reference.gaps, calibration.scale())
        unscaled = {k: v for k, (v, _) in
                    _end_to_end(rounds, setups, reference.gaps, 1.0).items()}
    meters = [m for _, m in rounds] + [reference]
    result = {
        "correct": error is None,
        "attempted": sum(m.attempted for m in meters),
        "failed": sum(m.failed for m in meters),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        environment=_environment(), check_error=error, rounds=len(rounds),
        calibration_s=calibration.times, unscaled_metrics=unscaled,
        round_wall_s=[sum(m.wall) for _, m in rounds],
        round_cpu_s=[sum(m.cpu) for _, m in rounds],
        round_iters=[m.iters for _, m in rounds],
        round_traced=[t for t, _ in rounds],
        op_wall_s=[w for _, m in rounds for w in m.wall],
        reference_gaps=reference.gaps,
        **result,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(OUT / f"{tag}-spans.csv")
    print(f"record: {OUT / f'{tag}-trace{args.trace}.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
