"""Span tracing for the benchmark's traced runs.

The tracer wraps the public functions of each layer where their callers
look them up (a module attribute or a class attribute), records one span
(name, start, end, parent) per call in memory, and derives each layer's
call count and self time: the span's duration minus the part covered by
its wrapped children.  Spans are only recorded while :meth:`installed`
is active, so untraced code runs the original functions.
"""

import contextlib
import functools
import time

import numpy as np

import slra.cli
import slra.envelope
import slra.harness
import slra.solvers
import slra.subspace

#: layers in report order; every traced run reports each of them
LAYERS = (
    "linalg.svd_uv", "linalg.svd_vals",
    "envelope.update", "envelope.feasible_value", "envelope.dual_value",
    "subspace.project", "matops.threshold",
    "solvers.run", "solvers.trace_csv",
    "signals.generate", "signals.sigma0_heuristic",
    "esprit.hankel_error",
    "harness.study", "harness.write", "harness.load_input",
    "cli.main",
)


def _svd_name(args, kwargs):
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    return "linalg.svd_uv" if compute_uv else "linalg.svd_vals"


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self._last_s = None
        # per RankObjective.update: (singular values, sigma0, degenerate)
        self.updates = []
        self.solver_iters = 0

    def wrap(self, name, fn, after=None):
        """``fn`` with a span around every call; ``name`` may be a function
        of (args, kwargs).  ``after(args, result)`` runs once the span has
        ended."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name(args, kwargs) if callable(name) else name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_svd(self, args, result):
        if isinstance(result, tuple):
            self._last_s = result[1]

    def _after_update(self, args, result):
        # the singular values come from the SVD inside this update; the
        # active count is derived from them when the run is summarized
        self.updates.append((self._last_s, args[0].sigma0, result.degenerate))

    def _after_run(self, args, result):
        self.solver_iters += result.n_iters

    def _targets(self):
        h, env, sub = slra.harness, slra.envelope, slra.subspace
        RankObjective, SolverTrace = env.RankObjective, slra.solvers.SolverTrace
        return [
            (np.linalg, "svd", _svd_name, self._after_svd),
            (RankObjective, "update", "envelope.update", self._after_update),
            (RankObjective, "feasible_value", "envelope.feasible_value", None),
            (RankObjective, "dual_value_da", "envelope.dual_value", None),
            (RankObjective, "dual_value_ada", "envelope.dual_value", None),
            (sub.HankelSubspace, "project", "subspace.project", None),
            (env, "f_hard", "matops.threshold", None),
            (env, "f_alpha", "matops.threshold", None),
            (slra.solvers, "run", "solvers.run", self._after_run),
            (SolverTrace, "write_csv", "solvers.trace_csv", None),
            (h, "gen_cos_sum", "signals.generate", None),
            (h, "add_noise", "signals.generate", None),
            (h, "four_tone_model", "signals.generate", None),
            (h, "sample_signal", "signals.generate", None),
            (h, "sigma0_heuristic", "signals.sigma0_heuristic", None),
            (h, "esprit_hankel_error", "esprit.hankel_error", None),
            (h, "cmd_converge", "harness.study", None),
            (h, "run_freqest_study", "harness.study", None),
            (h, "cmd_solve", "harness.study", None),
            (h, "_write_csv", "harness.write", None),
            (h, "_write_json", "harness.write", None),
            (h, "save_signal_csv", "harness.write", None),
            (np, "save", "harness.write", None),
            (h, "load_solve_input", "harness.load_input", None),
            (slra.cli, "main", "cli.main", None),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function by its wrapper, and restore the
        originals on exit."""
        saved = []
        try:
            for owner, attr, name, after in self._targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        """(names, self time per span, total duration of root spans)."""
        starts = np.array(self.starts)
        ends = np.array(self.ends)
        parents = np.array(self.parents, dtype=int)
        dur = ends - starts
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return self.names, dur - child, float(dur[~nested].sum())

    def layer_metrics(self, rounds):
        """Per-layer metrics, as means over ``rounds`` traced rounds."""
        names, self_t, _ = self.self_times()
        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        for name, t in zip(names, self_t):
            calls[name] += 1
            busy[name] += float(t)
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer] / rounds
            m[f"{layer}.self_s"] = busy[layer] / rounds
        for layer in ("envelope.update", "subspace.project"):
            m[f"{layer}.us_per_call"] = 1e6 * busy[layer] / calls[layer] if calls[layer] else 0.0
        m["solvers.run.iters"] = self.solver_iters / rounds
        m["solvers.run.us_per_iter"] = (
            1e6 * busy["solvers.run"] / self.solver_iters if self.solver_iters else 0.0)
        active = [int(np.count_nonzero(s >= s0)) for s, s0, _ in self.updates]
        m["envelope.update.degenerate"] = sum(d for _, _, d in self.updates) / rounds
        m["envelope.update.active_mean"] = float(np.mean(active)) if active else 0.0
        return m

    def write_spans(self, path):
        """One CSV row per span: name, start and end (seconds from the
        first span), parent row index (-1 for a root span)."""
        t0 = min(self.starts, default=0.0)
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(f"{row[0]},{row[1] - t0:.9f},{row[2] - t0:.9f},{row[3]}\n")
