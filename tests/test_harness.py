"""BLAS thread pinning of the trial runner, the resolution of the
penalty setting, the layout of the frequency-estimation study, and the one
Hankel subspace that each problem builds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slra import harness
from slra.envelope import RankObjective
from slra.signals import save_signal_csv, sigma0_heuristic
from slra.subspace import HankelSubspace

SRC = Path(__file__).resolve().parents[1] / "src"

#: prints the OpenBLAS thread count before, inside and after ``_map_trials``
SCRIPT = """
from slra import harness

def threads(_):
    return harness._openblas_threads()[0]()

get = harness._openblas_threads()[0]
print(get(), *harness._map_trials(threads, [0, 1]), get())
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_map_trials_runs_on_one_blas_thread(workers, tmp_path):
    script = tmp_path / "threads.py"
    script.write_text(SCRIPT)
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2",
           "SLRA_THREADS": workers}
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "1", "1", "2"]
    assert "not pinned" not in proc.stderr


def test_missing_openblas_is_said_once(monkeypatch, capsys):
    def no_library(path):
        raise OSError(path)

    harness._openblas_threads.cache_clear()
    monkeypatch.setattr(harness.ctypes, "CDLL", no_library)
    try:
        assert harness._map_trials(abs, [-1, 2]) == [1, 2]
        assert harness._map_trials(abs, [-3]) == [3]
    finally:
        harness._openblas_threads.cache_clear()
    assert capsys.readouterr().err.count("BLAS threads are not pinned") == 1


def test_importing_the_cli_loads_no_process_pool():
    code = ("import sys, slra.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_default_worker_count_follows_the_cpus_the_process_may_run_on(monkeypatch):
    monkeypatch.delenv("SLRA_THREADS", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert harness._worker_count() == 1


def test_default_worker_count_falls_back_to_the_cpu_count(monkeypatch):
    # where os has no sched_getaffinity, as on macOS and Windows
    monkeypatch.delenv("SLRA_THREADS", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    assert harness._worker_count() == 3


def test_gap_setting_resolves_to_the_heuristic():
    F = np.random.default_rng(5).standard_normal((12, 10))
    assert harness._resolve_sigma0(F, "gap:4") == sigma0_heuristic(F, 4)
    assert harness._resolve_sigma0(F, 2.5) == 2.5


def test_freqest_study_lays_out_trials_by_level_and_seed(monkeypatch):
    monkeypatch.setenv("SLRA_THREADS", "1")

    def stub(args):  # every field follows from the trial's own item
        seed, snr, max_iters = args
        return {"frob_diff": float(seed), "l2_diff": snr - seed, "converged": seed % 2 == 0,
                "n_iters": seed + max_iters, "full_svds": 1 + seed % 3,
                "passes": int(snr) + seed}

    monkeypatch.setattr(harness, "_freqest_trial", stub)
    config = harness.ExperimentConfig("freqest", trials=2, seed=10)
    study = harness.run_freqest_study(config, snr_levels=(0.0, 10.0, 20.0), max_iters=5)
    # row li, column t holds the trial of seed 10 + 2 li + t
    np.testing.assert_array_equal(study["frob_diff"], [[10, 11], [12, 13], [14, 15]])
    np.testing.assert_array_equal(study["l2_diff"], [[-10, -11], [-2, -3], [6, 5]])
    assert study["frob_positive_fraction"] == 1.0 and study["l2_negative_fraction"] == 4 / 6
    assert study["converged_fraction"] == 0.5 and study["mean_iters"] == 17.5
    # rows are n_iters + 1 per trial: 33, 37 and 41 per level; full SVDs
    # 5, 3 and 4; passes 21, 45 and 69
    assert study["levels"] == [
        {"snr_dbw": 0.0, "full_svd_fraction": 5 / 33, "passes_per_truncated_row": 21 / 28},
        {"snr_dbw": 10.0, "full_svd_fraction": 3 / 37, "passes_per_truncated_row": 45 / 34},
        {"snr_dbw": 20.0, "full_svd_fraction": 4 / 41, "passes_per_truncated_row": 69 / 37},
    ]
    assert study["full_svd_fraction"] == 12 / 111
    assert study["passes_per_truncated_row"] == 135 / 99


def test_each_problem_builds_its_subspace_once(tmp_path, monkeypatch):
    # the code that reads a problem's data builds its Hankel subspace, and
    # the solver, to_vector and ESPRIT all take that one
    builds = []
    init = HankelSubspace.__init__
    monkeypatch.setattr(HankelSubspace, "__init__",
                        lambda self, *shape: builds.append(shape) or init(self, *shape))

    def count(fn, *args):
        builds.clear()
        fn(*args)
        return len(builds)

    assert count(harness._cossum_trial, (0, 3, 0.1, harness.COSSUM_SIGMA0)) == 1
    assert count(harness._freqest_trial, (0, 20.0, 3)) == 1
    f = np.exp(0.4j * np.arange(29)) + 0.3 * np.exp(-1.1j * np.arange(29))
    save_signal_csv(tmp_path / "signal.csv", f)
    np.save(tmp_path / "matrix.npy", f[np.add.outer(np.arange(16), np.arange(14))])
    (tmp_path / "model.json").write_text(json.dumps({
        "terms": [{"c_re": 1.0, "c_im": 0.0, "zeta_re": 0.0, "zeta_im": 0.4}],
        "delta": 1.0, "grid": {"start": 0.0, "step": 1.0, "count": 29}}))
    for name, shape in (("signal.csv", (15, 15)), ("model.json", (15, 15)),
                        ("matrix.npy", (16, 14))):
        assert count(harness.load_solve_input, tmp_path / name) == 1
        assert builds == [shape]


def test_cosine_sum_trial_prices_no_primal_bound(monkeypatch):
    # its runs price every row exactly, so no output could read a bound
    calls = []
    bound = RankObjective.primal_bound
    monkeypatch.setattr(RankObjective, "primal_bound",
                        lambda self, *a: calls.append(a) or bound(self, *a))
    record = harness._cossum_trial((0, 20, 0.1, harness.COSSUM_SIGMA0))
    assert all(np.all(np.isfinite(primal)) for primal in record["primal"])
    assert calls == []
