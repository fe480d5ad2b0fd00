"""End-to-end tests of the command line: golden outputs of every study at
tiny sizes, worker-count independence, the ``da`` best iterate on exact
low-rank data, and the exit-code contract of ``--config``.

Each golden case runs ``python -m slra`` in a fresh directory with
``--out out``, one trial worker and single-threaded BLAS (threaded
kernels change the last digits), and compares every file it writes byte
for byte with ``tests/golden/<case>/``.  The figures depend on the
numpy/LAPACK build; after a change that is meant to alter them,
regenerate with

    PYTHONPATH=src python tests/test_cli.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slra.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

STUDY = ["--trials", "2", "--iters", "30"]

#: input file -> --sigma0 value of the solve cases
SOLVE_INPUTS = {"signal.csv": "gap:4", "matrix.npy": "1.5", "model.json": "gap:4"}

CASES = {
    "converge": STUDY + ["converge"],
    "gtdist": STUDY + ["gtdist"],
    "singvals": STUDY + ["singvals"],
    "toy": ["toy"],
    **{
        f"solve_{name.split('.')[1]}_{variant}": [
            "--iters", "40", "--sigma0", sigma0, "solve", "--input", name,
            "--variant", variant,
        ]
        for name, sigma0 in SOLVE_INPUTS.items()
        for variant in ("da", "ada", "mod_ada")
    },
}


def _four_tones(rng, n):
    """Amplitudes, exponents and samples of a damped four-tone sum."""
    amps = np.exp(2j * np.pi * rng.uniform(size=4))
    zetas = -rng.uniform(0.0, 0.005, 4) + 1j * (0.3 + 0.7 * np.arange(4)
                                                 + rng.uniform(-0.1, 0.1, 4))
    return amps, zetas, np.exp(np.multiply.outer(np.arange(n), zetas)) @ amps


def write_model_json(path, rng, n):
    """Noise-free four-tone model on the grid 0..n-1 (exact rank 4)."""
    amps, zetas, _ = _four_tones(rng, n)
    doc = {
        "terms": [{"c_re": c.real, "c_im": c.imag, "zeta_re": z.real, "zeta_im": z.imag}
                  for c, z in zip(amps, zetas)],
        "delta": 1.0,
        "grid": {"start": 0.0, "count": n, "step": 1.0},
    }
    Path(path).write_text(json.dumps(doc))


def write_inputs(directory):
    """The solve inputs, written with plain numpy so that a change to the
    program's own writers cannot change them."""
    rng = np.random.default_rng(2024)
    _, _, f = _four_tones(rng, 29)
    noisy = f + 0.05 * (rng.standard_normal(29) + 1j * rng.standard_normal(29))
    with open(directory / "signal.csv", "w") as fh:
        fh.write("index,re,im\n")
        for j, v in enumerate(noisy):
            fh.write(f"{j},{v.real:.17g},{v.imag:.17g}\n")
    t = np.linspace(-1.0, 1.0, 25)
    g = np.cos(7.0 * t) + 0.5 * np.exp(-t) + 0.1 * rng.standard_normal(25)
    np.save(directory / "matrix.npy", g[np.add.outer(np.arange(14), np.arange(12))])
    write_model_json(directory / "model.json", rng, 30)


def _slra(args, cwd, **env):
    full_env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    return subprocess.run([sys.executable, "-m", "slra", *args], cwd=cwd,
                          env=full_env, capture_output=True, text=True)


def run_case(case, directory):
    """Run one golden case in ``directory``; returns its output directory."""
    write_inputs(directory)
    proc = _slra(["--out", "out"] + CASES[case], directory, SLRA_THREADS="1",
                 OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    return directory / "out"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path):
    out = run_case(case, tmp_path)
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


def test_gtdist_identical_across_worker_counts(tmp_path):
    outputs = []
    for workers in ("1", "2"):
        proc = _slra(["--out", f"out{workers}"] + CASES["gtdist"], tmp_path,
                     SLRA_THREADS=workers, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr
        outputs.append([(tmp_path / f"out{workers}" / name).read_bytes()
                        for name in ("gtdist.csv", "gtdist.json")])
    assert outputs[0][0] == outputs[1][0]
    # the recorded config differs only in the output directory
    docs = [json.loads(o[1]) for o in outputs]
    for doc in docs:
        del doc["config"]["output_dir"]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("seed", range(5))
def test_da_keeps_rank_on_exact_model(seed, tmp_path, monkeypatch):
    # noise-free rank-4 data converge after one update; the best dual row
    # must be paired with the minimizer of the SVD that priced it, not X^0
    write_model_json(tmp_path / "model.json", np.random.default_rng(seed), 78)
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", "gap:4", "--out", "out", "solve",
                 "--input", "model.json", "--variant", "da"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["rank_x_star"] == 4


def _config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("doc", [
    {"trials": "2"}, {"alpha": "0.1"}, {"seed": 1.5}, {"trials": True}, {"out": 3},
])
def test_config_type_error_is_usage_error(doc, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--config", _config(tmp_path, doc), "toy"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("slra: error:") and repr(next(iter(doc))) in err[-1]


def test_config_type_error_subprocess(tmp_path):
    proc = _slra(["--config", _config(tmp_path, {"trials": "2"}), "converge"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr and "'trials'" in proc.stderr


def test_config_accepts_int_for_float_and_number_for_sigma0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    cfg = _config(tmp_path, {"alpha": 1, "sigma0": 2, "iters": 5, "stop_tol": 1})
    assert main(["--config", cfg, "solve", "--input", "signal.csv",
                 "--variant", "ada"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["sigma0"] == 2.0


if __name__ == "__main__":
    import shutil
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            shutil.copytree(run_case(case, Path(tmp)), GOLDEN / case)
