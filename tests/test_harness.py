"""BLAS thread pinning of the trial runner, and the resolution of the
penalty setting."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slra import harness
from slra.signals import sigma0_heuristic

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


def test_gap_setting_resolves_to_the_heuristic():
    F = np.random.default_rng(5).standard_normal((12, 10))
    assert harness._resolve_sigma0(F, "gap:4") == sigma0_heuristic(F, 4)
    assert harness._resolve_sigma0(F, 2.5) == 2.5
