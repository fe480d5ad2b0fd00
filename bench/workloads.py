"""The benchmark's three workloads.

An operation is one Monte-Carlo trial (``converge``, ``freqest``) or one
``slra solve`` request (``solve``).  A round is a fixed set of operations:
one trial, or one pass over the request pool.  Each workload makes its
inputs from the seed alone, runs a round through the program's public
entry points with a :class:`Meter` timing each operation, and checks every
output with :mod:`checks` outside the timed part.  Its reference problems
are the same for every seed; their certified duality gap is the run's
accuracy figure.
"""

import contextlib
import json
import os
import statistics
import sys
import time
import traceback

import numpy as np

import slra.cli
import slra.harness
import slra.solvers
from slra.harness import METHODS, ExperimentConfig

import checks


def derive_seed(*keys):
    """A 32-bit seed determined by the non-negative integers ``keys``."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


#: trial seed of the reference problems, the same for every --seed
REFERENCE_SEED = 0


class Calibration:
    """A fixed numpy kernel, the SVD of a random complex matrix, timed
    after every operation and outside it.  The machine's speed drifts by up
    to a fifth from minute to minute; the kernel's median time over a run
    measures the speed of that run, and :meth:`scale` turns the run's times
    into times on a machine where the kernel takes ``reference_s``.  Each
    workload names its kernel: the size decides which caches the SVD
    works in, so the kernel tracks a workload only near the workload's own
    matrix size."""

    #: one kernel call per this much operation time (about 4% extra)
    PERIOD_S = 0.1

    def __init__(self, size=96, reference_s=3.5e-3):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        self.reference_s = reference_s
        self.times = []
        self.sample(0.5)
        self.times.clear()  # the first calls warm the kernel up

    def sample(self, covered_s):
        """Time the kernel once per ``PERIOD_S`` of ``covered_s``, at least once."""
        for _ in range(1 + int(covered_s / self.PERIOD_S)):
            t0 = time.perf_counter()
            np.linalg.svd(self._a, full_matrices=False)
            self.times.append(time.perf_counter() - t0)

    def scale(self):
        return self.reference_s / statistics.median(self.times)


class Meter:
    """Times the operations of one round, counts them and the dual ascent
    iterations inside them, and, when ``certify`` is set, the certified
    duality gap of every solver call.  A calibration, when given, is
    sampled after each operation.

    While an operation runs, ``slra.solvers.run`` is wrapped so that each
    call's (objective, config, result) is kept; with a tracer, every
    traced layer is wrapped as well.
    """

    def __init__(self, tracer=None, certify=False, calibration=None):
        self.tracer = tracer
        self.certify = certify
        self.calibration = calibration
        self.wall = []      # seconds per operation
        self.cpu = []
        self.attempted = 0
        self.failed = 0
        self.iters = 0
        self.gaps = []

    @contextlib.contextmanager
    def op(self):
        """Time one operation; yields the list its solver calls fill."""
        self.attempted += 1
        calls = []
        original = slra.solvers.run

        def run(objective, subspace, config):
            result = original(objective, subspace, config)
            calls.append((objective, config, result))
            return result

        slra.solvers.run = run
        try:
            with self.tracer.installed() if self.tracer else contextlib.nullcontext():
                c0, t0 = time.process_time(), time.perf_counter()
                yield calls
                t1, c1 = time.perf_counter(), time.process_time()
        finally:
            slra.solvers.run = original
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        if self.calibration is not None:
            self.calibration.sample(t1 - t0)

    def fail(self, what):
        self.failed += 1
        print(f"failed operation: {what}", file=sys.stderr)
        traceback.print_exc()

    def solved(self, calls):
        """Count the iterations of an operation's solver calls and, when
        certifying, their gaps: the primal value of the returned X_star
        minus the best dual value, relative to that primal value."""
        for objective, config, result in calls:
            self.iters += result.n_iters
            if self.certify:
                primal = objective.feasible_value(result.X_star, config.alpha_reg)
                self.gaps.append(1.0 - float(np.nanmax(result.trace.dual)) / primal)


class Converge:
    """The cosine-sum study: real 101x100 Hankel data, all three variants,
    a fixed iteration budget with primal values tracked; one trial per
    round."""

    name = "converge"
    #: calibration kernel: matrix size and reference time
    kernel = (96, 3.5e-3)

    def __init__(self, iters=100):
        self.iters = iters

    def prepare(self, seed, workdir):
        self.seed = seed
        self.out = workdir / "out"

    def _config(self, trial_seed, iters):
        return ExperimentConfig("converge", trials=1, iters=iters, seed=trial_seed,
                                output_dir=self.out)

    def warm_up(self):
        slra.harness.cmd_converge(self._config(derive_seed(self.seed, 0), 3))

    def run_round(self, key, meter):
        self._trial(derive_seed(self.seed, 1, key), meter)

    def reference(self, meter):
        self._trial(REFERENCE_SEED, meter)

    def _trial(self, trial_seed, meter):
        try:
            with meter.op() as calls:
                report = slra.harness.cmd_converge(self._config(trial_seed, self.iters))
        except Exception:
            meter.fail(f"converge trial with seed {trial_seed}")
            return
        checks.check_converge(report, METHODS)
        checks.check_converge_files(self.out, METHODS, self.iters)
        meter.solved(calls)


class Freqest:
    """The four-tone study: complex 129x129 data, ``da`` with square-root
    steps to convergence, ESPRIT alongside; one trial per round at a single
    SNR level."""

    name = "freqest"
    # a 96x96 kernel did not track this workload's 129x129 SVDs: over ten
    # seeds, scaling by it widened the spread of wall_s from 0.10 to 0.31
    kernel = (129, 6.0e-3)

    def __init__(self, snr_dbw=20.0, max_iters=2000):
        self.snr_dbw = snr_dbw
        self.max_iters = max_iters

    def prepare(self, seed, workdir):
        self.seed = seed

    def _study(self, trial_seed, max_iters):
        config = ExperimentConfig("freqest", trials=1, seed=trial_seed)
        return slra.harness.run_freqest_study(config, snr_levels=(self.snr_dbw,),
                                              max_iters=max_iters)

    def warm_up(self):
        self._study(derive_seed(self.seed, 0), 3)

    def run_round(self, key, meter):
        self._trial(derive_seed(self.seed, 2, key), meter)

    def reference(self, meter):
        self._trial(REFERENCE_SEED, meter)

    def _trial(self, trial_seed, meter):
        try:
            with meter.op() as calls:
                study = self._study(trial_seed, self.max_iters)
        except Exception:
            meter.fail(f"freqest trial with seed {trial_seed}")
            return
        checks.check_freqest_study(study, 1)
        for _, _, result in calls:
            checks.check_freqest_solution(result.X_star)
        meter.solved(calls)


FORMATS = ("csv", "json", "npy")

#: a model file describes noise-free data of exact rank 4, on which ``da``
#: returns X_star = 0 on some seeds and not on others (the dual at row 1
#: ties with row 0 and the best-iterate rule picks X^0 = 0), so that
#: combination is left out
JSON_VARIANTS = ("ada", "mod_ada")


#: signal-to-noise ratio of the noisy solve inputs, in dBW
SOLVE_SNR_DBW = 15.0


def _write_problem(rng, path, fmt, rows):
    """A random four-tone damped exponential sum whose Hankel matrix is
    rows x (rows - 1): noisy samples (CSV), the noise-free model (JSON),
    or a noisy matrix with elementwise noise (.npy).  Tones are spread
    over (0.2, 2.5) rad per sample, so every problem is equally well
    conditioned and only phases, jitter and noise vary.  The files are
    written here rather than with the program's own writers, so a change
    to those cannot change the inputs."""
    n = 2 * rows - 2
    amps = np.exp(2j * np.pi * rng.uniform(size=4))
    zetas = -rng.uniform(0.0, 0.005, 4) + 1j * (0.3 + 0.7 * np.arange(4) + rng.uniform(-0.1, 0.1, 4))
    if fmt == "json":
        doc = {
            "terms": [{"c_re": c.real, "c_im": c.imag, "zeta_re": z.real, "zeta_im": z.imag}
                      for c, z in zip(amps, zetas)],
            "delta": 1.0,
            "grid": {"start": 0.0, "count": n, "step": 1.0},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return
    f = np.exp(np.multiply.outer(np.arange(n), zetas)) @ amps
    data = f if fmt == "csv" else f[np.add.outer(np.arange(rows), np.arange(rows - 1))]
    std = np.sqrt(np.mean(np.abs(f) ** 2)) * 10.0 ** (-SOLVE_SNR_DBW / 20.0)
    noisy = data + std / np.sqrt(2.0) * (rng.standard_normal(data.shape)
                                         + 1j * rng.standard_normal(data.shape))
    if fmt == "npy":
        np.save(path, noisy)
        return
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        for j, v in enumerate(noisy):
            fh.write(f"{j},{v.real:.17g},{v.imag:.17g}\n")


def _stratified_pool(rng, rows):
    """(rows, format, variant) triples: each run of three consecutive row
    counts gets one problem per format, and each format's problems, in
    order of size, take its variants in shuffled blocks, so every seed
    spreads sizes evenly over formats and variants."""
    rows = sorted(int(r) for r in rows)
    by_format = {fmt: [] for fmt in FORMATS}
    for t in range(0, len(rows), len(FORMATS)):
        for r, fmt in zip(rows[t:t + len(FORMATS)], rng.permutation(FORMATS)):
            by_format[str(fmt)].append(r)
    pool = []
    for fmt, sizes in by_format.items():
        variants = JSON_VARIANTS if fmt == "json" else slra.solvers.VARIANTS
        for t in range(0, len(sizes), len(variants)):
            for r, v in zip(sizes[t:t + len(variants)], rng.permutation(variants)):
                pool.append((r, fmt, str(v)))
    return [pool[i] for i in rng.permutation(len(pool))]


class Solve:
    """A closed loop with one client: single ``slra solve`` requests
    through ``cli.main``.  The pool holds two problems per row count from
    30 to 65, in all three input formats and for all three variants; each
    round sends every request of the pool once."""

    name = "solve"
    kernel = (96, 3.5e-3)

    def __init__(self, rows=tuple(range(30, 66)) * 2, reference_rows=range(30, 39)):
        self.rows = rows
        self.reference_rows = reference_rows

    def _pool(self, rng, rows, inputs, seed):
        inputs.mkdir(parents=True, exist_ok=True)
        requests = []
        for i, (r, fmt, variant) in enumerate(_stratified_pool(rng, rows)):
            path = inputs / f"p{i:02d}.{fmt}"
            _write_problem(rng, path, fmt, r)
            requests.append(["--seed", str(seed), "--sigma0", "gap:4", "--out", str(self.out),
                             "solve", "--input", str(path), "--variant", variant])
        return requests

    def prepare(self, seed, workdir):
        self.out = workdir / "out"
        self.requests = self._pool(np.random.default_rng(derive_seed(seed, 3)),
                                   self.rows, workdir / "inputs", seed)
        self.reference_requests = self._pool(np.random.default_rng(REFERENCE_SEED),
                                             self.reference_rows, workdir / "reference",
                                             REFERENCE_SEED)

    @staticmethod
    def _send(argv, sink):
        with contextlib.redirect_stdout(sink):
            return slra.cli.main(argv)

    def warm_up(self):
        # one reference request per format: the same work for every seed
        first = [next(a for a in self.reference_requests if a[-3].endswith(fmt))
                 for fmt in FORMATS]
        with open(os.devnull, "w") as sink:
            for argv in first:
                if self._send(argv, sink) != 0:
                    raise RuntimeError(f"warm-up request failed: {' '.join(argv)}")

    def run_round(self, key, meter):
        self._send_all(self.requests, meter)

    def reference(self, meter):
        self._send_all(self.reference_requests, meter)

    def _send_all(self, requests, meter):
        with open(os.devnull, "w") as sink:
            for argv in requests:
                self._request(argv, sink, meter)

    def _request(self, argv, sink, meter):
        try:
            with meter.op() as calls:
                code = self._send(argv, sink)
        except Exception:
            meter.fail(" ".join(argv))
            return
        if code != 0:
            meter.failed += 1
            print(f"failed request (exit {code}): {' '.join(argv)}", file=sys.stderr)
            return
        checks.check_solve_output(self.out, calls[0][2])
        meter.solved(calls)


def make(name):
    return {"converge": Converge, "freqest": Freqest, "solve": Solve}[name]()
