"""End-to-end tests of the command line: golden outputs of every study at
tiny sizes, worker-count independence, the ``da`` best iterate on exact
low-rank data, and the exit-code contract of ``--config`` and of the
inputs.

Each golden case runs ``python -m slra`` in a fresh directory with
``--out out``, one trial worker and single-threaded BLAS (threaded
kernels change the last digits), and compares every file it writes byte
for byte with ``tests/golden/<case>/``.  The figures depend on the
numpy/LAPACK build; after a change that is meant to alter them,
regenerate with

    PYTHONPATH=src python tests/test_cli.py

which prints how each changed file differs and deletes the golden
directories of cases that no longer exist.
"""

import argparse
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from doubles import assert_primal_bound_holds, assert_same_run, never_truncate
from slra import harness, solvers
from slra.cli import _parse_snr_levels, build_parser, main
from slra.envelope import RankObjective
from slra.signals import load_signal_csv

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

STUDY = ["--trials", "2", "--iters", "30"]

#: input file -> --sigma0 value of the solve cases
SOLVE_INPUTS = {"signal.csv": "gap:4", "matrix.npy": "1.5", "model.json": "gap:4"}

CASES = {
    "converge": STUDY + ["converge"],
    "toy": ["toy"],
    "freqest": ["--trials", "1", "freqest", "--snr-levels", "20"],
    **{
        f"solve_{name.split('.')[1]}_{variant}": [
            "--iters", "40", "--sigma0", sigma0, "solve", "--input", name,
            "--variant", variant,
        ]
        for name, sigma0 in SOLVE_INPUTS.items()
        for variant in ("da", "ada", "mod_ada")
    },
    # 48x47 rows whose budget lets truncated attempts certify: the one
    # golden solve that runs power and Rayleigh-Ritz passes
    "solve_tones_da": ["--iters", "40", "--sigma0", "gap:4", "solve", "--input", "tones.npy",
                       "--variant", "da"],
}


def _four_tones(rng, n):
    """Amplitudes, exponents and samples of a damped four-tone sum."""
    amps = np.exp(2j * np.pi * rng.uniform(size=4))
    zetas = -rng.uniform(0.0, 0.005, 4) + 1j * (0.3 + 0.7 * np.arange(4)
                                                 + rng.uniform(-0.1, 0.1, 4))
    return amps, zetas, np.exp(np.multiply.outer(np.arange(n), zetas)) @ amps


def write_model_json(path, rng, n, amplitude=1.0):
    """Noise-free four-tone model on the grid 0..n-1 (exact rank 4), each
    tone of modulus ``amplitude``."""
    amps, zetas, _ = _four_tones(rng, n)
    amps = amplitude * amps
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
    _, _, f = _four_tones(rng, 94)
    tones = f + 0.1 * (rng.standard_normal(94) + 1j * rng.standard_normal(94))
    np.save(directory / "tones.npy", tones[np.add.outer(np.arange(48), np.arange(47))])


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


def test_golden_directories_are_the_cases():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


def _assert_identical_across_worker_counts(tmp_path, args, csvs, summary):
    """``args`` with SLRA_THREADS 1 and 2 write exactly ``csvs`` and
    ``summary``: the CSVs byte-equal, the summary equal apart from the
    output directory it records."""
    outputs = []
    for workers in ("1", "2"):
        proc = _slra(["--out", f"out{workers}"] + args, tmp_path,
                     SLRA_THREADS=workers, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / f"out{workers}"
        assert sorted(p.name for p in out.iterdir()) == sorted(csvs + (summary,))
        outputs.append(out)
    for name in csvs:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
    docs = [json.loads((out / summary).read_text()) for out in outputs]
    for doc in docs:
        del doc["config"]["output_dir"]
    assert docs[0] == docs[1]


def test_converge_identical_across_worker_counts(tmp_path):
    _assert_identical_across_worker_counts(
        tmp_path, CASES["converge"], ("converge_curves.csv", "gtdist.csv", "singvals.csv"),
        "converge_summary.json")


def test_freqest_identical_across_worker_counts(tmp_path):
    _assert_identical_across_worker_counts(
        tmp_path, ["--trials", "2", "freqest", "--snr-levels", "10,20"],
        ("freqest_diffs.csv", "freqest_hist.csv"), "freqest_summary.json")


def test_converge_runs_every_row_when_the_residual_vanishes(tmp_path, monkeypatch):
    # sigma0 = 1000 thresholds every value away, so each X^k = 0 lies in the
    # subspace and the residual is 0 from row 1 on; converge switches the
    # residual stop off, so each run still makes all iters + 1 rows
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLRA_THREADS", "1")
    results = []
    original = solvers.run
    monkeypatch.setattr(solvers, "run", lambda *a: results.append(original(*a)) or results[-1])
    assert main(["--sigma0", "1000", "--trials", "2", "--iters", "6", "--out", "o",
                 "converge"]) == 0
    assert len(results) == 2 * len(harness.METHODS)
    assert all(not r.converged and len(r.trace) == 7 for r in results)
    assert all(np.all(r.trace.feas_residual == 0.0) for r in results)
    rows = [line.split(",") for line in
            (tmp_path / "o" / "converge_curves.csv").read_text().splitlines()[1:]]
    assert len(rows) == 7 * len(harness.METHODS)
    for method in harness.METHODS:
        assert [int(row[1]) for row in rows if row[0] == method] == list(range(7))
        values = [row[2:] for row in rows if row[0] == method]  # (mean_primal, mean_dual)
        assert values == [values[1]] * 7


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


@pytest.mark.parametrize("variant", solvers.VARIANTS)
def test_noise_free_model_of_large_amplitude_stays_in_the_complement(variant, tmp_path,
                                                                     monkeypatch):
    # the rounding of X - P(X) leaves P(Lambda) a few eps of ||X|| ~ 1e7
    # here, far above the 1e-10 that an absolute bound allowed
    write_model_json(tmp_path / "model.json", np.random.default_rng(0), 60, amplitude=1e6)
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", "gap:4", "--out", "out", "solve",
                 "--input", "model.json", "--variant", variant]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["rank_x_star"] == 4


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("solve_")))
def test_golden_solves_price_every_row_by_a_full_svd(case, tmp_path, monkeypatch):
    # the golden problems have 12 to 15 columns, or 47 in solve_tones_da,
    # and capture few values, so a row's pass budget min(M, N) / (k + 2)
    # reaches the two passes a truncated attempt needs; the signal-CSV
    # and matrix.npy solves certify no row, the others every row after
    # row 0, and each solve matches the same solve with every row priced
    # by a full SVD
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLRA_THREADS", "1")
    results = []
    original = solvers.run
    monkeypatch.setattr(solvers, "run", lambda *a: results.append(original(*a)) or results[-1])
    assert main(["--out", "fast"] + CASES[case]) == 0
    never_truncate(monkeypatch)
    assert main(["--out", "full"] + CASES[case]) == 0
    fast, full = results
    assert fast.passes > 0
    assert full.full_svds == full.n_iters + 1 and full.passes == 0
    assert_same_run(fast, full)


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("solve_")))
def test_golden_solves_bound_the_primal_value_on_every_row(case, tmp_path, monkeypatch):
    # solve prices the exact primal value on rows 0, 2^j and the last only;
    # the same solve with every row priced shows each row's bound above it
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLRA_THREADS", "1")
    calls = []
    original = solvers.run
    monkeypatch.setattr(solvers, "run",
                        lambda *a: calls.append((a, original(*a))) or calls[-1][1])
    assert main(["--out", "out"] + CASES[case]) == 0
    (objective, subspace, config), solved = calls[0]
    assert config.primal_rows == "doubling"
    tracked = original(objective, subspace, dataclasses.replace(config, primal_rows="all"))
    assert_primal_bound_holds(solved.trace, tracked.trace)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_primal"] == tracked.trace.primal[-1]
    assert summary["certified_gap"] == (np.min(solved.trace.primal_bound)
                                        - np.max(tracked.trace.dual))


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("solve_")))
def test_golden_solves_return_a_point_no_dual_exceeds(case, tmp_path):
    # weak duality at the point solve returns: the primal value of X_star,
    # rebuilt from the golden x_star_vector.csv, is at least the greatest
    # dual of the golden trace, less the rounding allowance of
    # bench/checks.py, 1e-12 of the largest value; the noise-free
    # model-JSON solves of ada and mod_ada fall below the dual by 2.5e-13
    # relative, so a strict >= would fail
    write_inputs(tmp_path)
    argv = CASES[case]
    F, sub = harness.load_solve_input(tmp_path / argv[argv.index("--input") + 1])
    golden = GOLDEN / case
    x_star = sub.from_vector(load_signal_csv(golden / "x_star_vector.csv")[1])
    sigma0 = json.loads((golden / "summary.json").read_text())["sigma0"]
    alpha = 0.0 if argv[argv.index("--variant") + 1] == "da" else harness.ExperimentConfig.alpha
    value = RankObjective(F, sigma0).feasible_value(x_star, alpha)
    dual = float(np.max(solvers.SolverTrace.read_csv(golden / "trace.csv").dual))
    assert value >= dual - 1e-12 * max(1.0, abs(value), abs(dual))


def test_freqest_runs_the_given_levels_and_budget(tmp_path, monkeypatch):
    monkeypatch.setenv("SLRA_THREADS", "1")
    monkeypatch.setattr(harness, "FREQEST_MAX_ITERS", 3)
    config = harness.ExperimentConfig(experiment="freqest", trials=1, output_dir=tmp_path)
    harness.cmd_freqest(config, (5.0, 20.0))
    summary = json.loads((tmp_path / "freqest_summary.json").read_text())
    assert summary["snr_levels"] == [5.0, 20.0]
    assert summary["mean_iters"] == 3.0 and summary["converged_fraction"] == 0.0
    # the config holds what the study reads, and no cosine-sum setting
    assert summary["config"] == {"experiment": "freqest", "trials": 1, "seed": 0,
                                 "output_dir": str(tmp_path), "sigma0": "gap:4",
                                 "max_iters": 3}
    assert summary["passes_per_truncated_row"] > 0
    assert [level["snr_dbw"] for level in summary["levels"]] == [5.0, 20.0]
    for level in summary["levels"]:
        assert 0 < level["full_svd_fraction"] <= 1 and level["passes_per_truncated_row"] > 0
    diffs = (tmp_path / "freqest_diffs.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in diffs[1:]] == [5.0, 20.0]


def test_freqest_parses_snr_levels():
    assert _parse_snr_levels("5, 20") == (5.0, 20.0)
    assert _parse_snr_levels("6165,-6165") == (6165.0, -6165.0)


def _no_freqest_trial(monkeypatch):
    monkeypatch.setenv("SLRA_THREADS", "1")

    def no_trial(args):
        pytest.fail("a trial ran before the SNR levels were checked")

    monkeypatch.setattr(harness, "_freqest_trial", no_trial)


# 10^(|level|/20) overflows a double beyond 20 log10(max double) = 6165.09 dB
@pytest.mark.parametrize("flags", [
    ["--snr-levels", ""], ["--snr-levels", "20,abc"], ["--snr-levels", "20,"],
    ["--snr-levels", "nan"], ["--snr-levels", "7000"], ["--snr-levels", "-7000"],
])
def test_freqest_bad_snr_levels_is_usage_error(flags, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _no_freqest_trial(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["--trials", "1", "freqest", *flags])
    assert exc.value.code == 2
    assert "slra: error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("level", ["7000", "-7000"])
def test_bad_snr_levels_from_a_config_file_is_usage_error_before_any_trial(level, tmp_path,
                                                                          capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _no_freqest_trial(monkeypatch)
    (tmp_path / "config.json").write_text(json.dumps({"snr-levels": level}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", "config.json", "--trials", "1", "freqest"])
    assert exc.value.code == 2
    assert f"bad --snr-levels value {level!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, study", [
    (flag, value, study) for study in ("freqest", "toy") for flag, value in (
        ("iters", 5), ("iters", 100), ("alpha", 7.0), ("sigma0", "2.5"), ("sigma0", "gap:4"))
] + [("trials", 5, "toy"), ("seed", 3, "toy")])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_flag_the_study_does_not_read_is_usage_error(study, flag, value, via_config,
                                                     tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    given = (["--config", _config(tmp_path, {flag: value})] if via_config
             else [f"--{flag}", str(value)])
    with pytest.raises(SystemExit) as exc:
        main(["--trials", "1", *given, study, "--snr-levels", "20"] if study == "freqest"
             else [*given, study])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == f"slra: error: {study} does not read --{flag}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("trials", [0, -2])
@pytest.mark.parametrize("study", [["converge"], ["freqest", "--snr-levels", "20"]],
                         ids=["converge", "freqest"])
def test_trials_below_one_is_usage_error(study, trials, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--trials", str(trials), *study]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: trials must be at least 1, got {trials}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variant", [["--variant", "da"], []], ids=["da", "default"])
@pytest.mark.parametrize("given", [["--alpha", "0.5"], ["--alpha", "inf"], ["--alpha", "-3"],
                                   {"alpha": 0.5}], ids=["flag", "flag-inf", "flag-neg", "config"])
def test_solve_da_does_not_read_alpha(given, variant, tmp_path, capsys, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    if isinstance(given, dict):
        given = ["--config", _config(tmp_path, given)]
    with pytest.raises(SystemExit) as exc:
        main([*given, "--sigma0", "1.5", "solve", "--input", "matrix.npy", *variant])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert [line for line in err if line.startswith("slra: error:")] == \
        ["slra: error: solve --variant da does not read --alpha"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha", ["-1", "0", "inf"])
def test_alpha_is_checked_before_any_trial(alpha, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLRA_THREADS", "1")

    def no_trial(args):
        pytest.fail("a trial ran before --alpha was checked")

    monkeypatch.setattr(harness, "_cossum_trial", no_trial)
    assert main(["--alpha", alpha, "--trials", "1", "--iters", "5", "converge"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "alpha" in err[0] and "alpha_reg" not in err[0]
    assert not (tmp_path / "out").exists()


# each solve names a missing input: a setting must be checked before it is read
@pytest.mark.parametrize("name, argv, threads", [
    ("sigma0", ["--sigma0", "inf", "solve", "--input", "missing.npy"], None),
    ("alpha", ["--alpha", "inf", "--sigma0", "gap:4", "solve", "--input", "missing.npy",
               "--variant", "ada"], None),
    *(("rank_tol", ["--sigma0", "1.5", "solve", "--input", "missing.npy", "--rank-tol", tol],
       None) for tol in ("0", "1", "2")),
    *(("stop_tol", ["--sigma0", "1.5", "solve", "--input", "missing.npy", "--stop-tol", tol],
       None) for tol in ("-1", "inf", "nan")),
    ("sigma0", ["--config", "inf.json", "solve", "--input", "missing.npy"], None),
    *(("SLRA_THREADS", ["--trials", "1", "converge"], threads)
      for threads in ("abc", "0", "-3")),
    ("iters", ["--iters", "-1", "--trials", "1", "converge"], None),
    ("iters", ["--iters", "-1", "--sigma0", "1.5", "solve", "--input", "missing.npy"], None),
    ("seed", ["--seed", "-1", "--trials", "1", "converge"], None),
    ("seed", ["--seed", "-1", "--sigma0", "1.5", "solve", "--input", "missing.npy"], None),
], ids=["sigma0-inf", "alpha-inf", "rank-tol-0", "rank-tol-1", "rank-tol-2", "stop-tol--1",
        "stop-tol-inf", "stop-tol-nan", "config-1e999", "threads-abc", "threads-0",
        "threads--3", "iters-converge", "iters-solve", "seed-converge", "seed-solve"])
def test_bad_value_is_usage_error_before_output(name, argv, threads, tmp_path, capsys,
                                                monkeypatch):
    (tmp_path / "inf.json").write_text('{"sigma0": 1e999}')  # JSON reads inf
    monkeypatch.chdir(tmp_path)
    if threads is not None:
        monkeypatch.setenv("SLRA_THREADS", threads)
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, given", [
    ("seed", ["--seed", "-1"]), ("iters", ["--iters", "-1"]),
    *(("sigma0", ["--sigma0", value]) for value in ("bogus", "gap:0", "gap:", "-1", "inf")),
    *(("sigma0", {"sigma0": value}) for value in ("bogus", "gap:1.5", 0, -2.5)),
    ("seed", {"seed": -1}), ("iters", {"iters": -1}),
    ("output_dir", ["--out", "file"]), ("output_dir", ["--out", "file/sub"]),
], ids=["seed", "iters", "sigma0-bogus", "sigma0-gap0", "sigma0-gap", "sigma0-neg",
        "sigma0-inf", "config-sigma0-bogus", "config-sigma0-gap1.5", "config-sigma0-0",
        "config-sigma0-neg", "config-seed", "config-iters", "out-file", "out-under-file"])
def test_setting_is_checked_before_any_trial(name, given, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLRA_THREADS", "2")
    (tmp_path / "file").write_text("")

    def no_trial(args):
        pytest.fail(f"a trial ran before {name} was checked")

    monkeypatch.setattr(harness, "_cossum_trial", no_trial)
    if isinstance(given, dict):
        given = ["--config", _config(tmp_path, given)]
    assert main([*given, "--trials", "1", "converge"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} must be ")
    assert not (tmp_path / "out").exists()


def test_solve_into_a_path_under_a_file_fails_before_reading_the_input(tmp_path, capsys,
                                                                         monkeypatch):
    write_inputs(tmp_path)
    (tmp_path / "file").write_text("")
    monkeypatch.chdir(tmp_path)

    def no_read(path):
        pytest.fail("the input was read before output_dir was checked")

    monkeypatch.setattr(harness, "load_solve_input", no_read)
    assert main(["--sigma0", "1.5", "--out", "file/sub", "solve", "--input", "matrix.npy"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: output_dir must be a directory, but file is a file"]


def test_solve_with_the_stop_off_makes_every_iteration(tmp_path, monkeypatch):
    # sigma0 = 1000 thresholds every value away, so the residual is 0 from
    # row 1 on: the default stop ends the run there, stop_tol 0 never does
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    solve = ["--sigma0", "1000", "--iters", "5", "solve", "--input", "matrix.npy"]
    for out, flags, rows, status in (("default", [], 2, "converged"),
                                     ("fixed", ["--stop-tol", "0"], 6, "max_iters")):
        assert main(["--out", out, *solve, *flags]) == 0
        trace = (tmp_path / out / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + rows
        summary = json.loads((tmp_path / out / "summary.json").read_text())
        assert (summary["status"], summary["n_iters"]) == (status, rows - 1)


def test_gap_order_beyond_the_solve_data_names_the_setting_and_shape(tmp_path, capsys,
                                                                    monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", "gap:12", "solve", "--input", "matrix.npy"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: sigma0 gap:12 does not fit data of shape 14x12: "
                   "P must be at most min(shape) - 1 = 11"]
    assert not (tmp_path / "out").exists()
    assert main(["--sigma0", "gap:11", "--iters", "2", "solve", "--input", "matrix.npy"]) == 0


def test_gap_order_beyond_the_converge_shape_fails_before_any_trial(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLRA_THREADS", "2")

    def no_trial(args):
        pytest.fail("a trial ran before the gap order was checked")

    monkeypatch.setattr(harness, "_cossum_trial", no_trial)
    assert main(["--sigma0", "gap:100", "--trials", "2", "converge"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: sigma0 gap:100 does not fit data of shape 101x100: "
                   "P must be at most min(shape) - 1 = 99"]
    assert not (tmp_path / "out").exists()


def test_converge_records_the_penalty_setting_as_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLRA_THREADS", "1")
    assert main(["--sigma0", "gap:8", "--trials", "1", "--iters", "3", "converge"]) == 0
    config = json.loads((tmp_path / "out" / "converge_summary.json").read_text())["config"]
    assert config["sigma0"] == "gap:8"
    assert sorted(config) == ["alpha", "experiment", "iters", "noise_sigma", "output_dir",
                              "seed", "sigma0", "trials"]


def test_alpha_is_recorded_alike_from_a_flag_and_from_a_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLRA_THREADS", "1")
    study = ["--trials", "1", "--iters", "2", "converge"]
    assert main(["--alpha", "1", "--out", "flag", *study]) == 0
    assert main(["--config", _config(tmp_path, {"alpha": 1}), "--out", "config", *study]) == 0
    summaries = [json.loads((tmp_path / out / "converge_summary.json").read_text())
                 for out in ("flag", "config")]
    for summary in summaries:
        assert summary["config"].pop("output_dir")
    # as text, since 1 == 1.0 in Python
    assert json.dumps(summaries[0]) == json.dumps(summaries[1])
    assert '"alpha": 1.0' in json.dumps(summaries[1])


def test_every_option_with_a_default_shows_it_in_its_help():
    # the global flags default to None, so that only the flags given reach
    # the harness; their help reads the defaults from ExperimentConfig
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    silent = [(name, action.dest) for name, p in (("slra", parser), *sub.choices.items())
              for action in p._actions
              if action.default not in (None, argparse.SUPPRESS)
              and "(default" not in (action.help or "")]
    assert silent == []
    solve_help = " ".join(sub.choices["solve"].format_help().split())
    for shown in ("(default da)", "(default 1e-06)", "(default 1e-09)"):
        assert shown in solve_help
    assert "(default 0.8 for converge; solve requires it; freqest uses gap:4)" in \
        " ".join(parser.format_help().split())


def test_solve_rejects_trials_and_accepts_seed(tmp_path, capsys, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    solve = ["--sigma0", "1.5", "--iters", "3", "solve", "--input", "matrix.npy"]
    with pytest.raises(SystemExit) as exc:
        main(["--trials", "3", *solve])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == \
        "slra: error: solve does not read --trials"
    assert not (tmp_path / "out").exists()
    assert main(["--seed", "9", *solve]) == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["n_iters"] == 3


def test_cached_parser_serves_requests_as_fresh_parsers_do(tmp_path, capsys, monkeypatch):
    # a config file, a usage error and defaults of one request must not
    # leak into the next one that the same parser parses
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLRA_THREADS", "1")
    cfg = _config(tmp_path, {"alpha": 0.5, "iters": 7, "stop_tol": 1e-3})
    requests = [
        ["--config", cfg, "--sigma0", "gap:4", "--out", "a", "solve", "--input", "signal.csv",
         "--variant", "ada"],
        ["--out", "b", "toy"],
        ["--trials", "3", "--sigma0", "1.5", "solve", "--input", "matrix.npy"],
        ["--iters", "4", "--sigma0", "1.5", "--out", "c", "solve", "--input", "matrix.npy"],
        ["--trials", "1", "--out", "d", "freqest", "--snr-levels", "20"],
    ]

    def serve(fresh):
        codes = []
        for argv in requests:
            if fresh:
                build_parser.cache_clear()
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
        files = {p.relative_to(tmp_path).as_posix(): p.read_bytes()
                 for d in "abcd" for p in sorted((tmp_path / d).iterdir())}
        for d in "abcd":
            shutil.rmtree(tmp_path / d)
        return codes, files, capsys.readouterr()

    cached, fresh = serve(False), serve(True)
    assert cached[0] == [0, 0, 2, 0, 0]
    assert cached == fresh
    assert build_parser() is build_parser()
    # the second solve ran on the defaults, not on the first one's config
    summary = json.loads(fresh[1]["c/summary.json"])
    assert summary["n_iters"] == 4 and summary["status"] == "max_iters"


def test_describe_change_reports_relative_difference_and_fields(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("a,b\n1.0,2.0\nx,4.0\n")
    new.write_text("a,b\n1.0,2.0000001\nx,4.0\n")
    assert describe_change(old, new) == "largest relative difference 5e-08"
    # a number that turns NaN, or NaN that turns a number, is named, not
    # dropped from the largest difference; NaN that stays NaN is no change
    old.write_text("a,b,c\n1.0,2.0,nan\nnan,4.0,nan\n")
    new.write_text("a,b,c\n1.0,nan,nan\n3.0,4.0,nan\n")
    assert describe_change(old, new) == (
        "largest relative difference 0; number to NaN: (1, 1); NaN to number: (2, 0)")
    new.write_text("a,b,c\n1.5,nan,nan\nnan,4.0,nan\n")
    assert describe_change(old, new) == (
        "largest relative difference 0.33; number to NaN: (1, 1)")
    # so is a number that turns +-inf, or +-inf that turns a number; inf/inf
    # would read NaN and hide the other cells' differences
    old.write_text("a,b,c\n1.0,2.0,inf\n-inf,4.0,-inf\n")
    new.write_text("a,b,c\ninf,3.0,inf\n5.0,-inf,-inf\n")
    assert describe_change(old, new) == (
        "largest relative difference 0.33; number to inf: (1, 0); number to -inf: (2, 1); "
        "-inf to number: (2, 0)")
    new.write_text("a,b,c\n1.0,2.0,-inf\nnan,4.0,-inf\n")
    assert describe_change(old, new) == (
        "largest relative difference 0; inf to -inf: (1, 2); -inf to NaN: (2, 0)")
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"c": {"iters": 100}, "v": [1.0, 2.0], "s": "gap:4"}))
    new.write_text(json.dumps({"c": {"max_iters": 5}, "v": [1.0, 1.0], "s": "gap:4"}))
    assert describe_change(old, new) == (
        "largest relative difference 0.5; only before: c.iters; only after: c.max_iters")


def _config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("doc", [
    {"trials": "2"}, {"alpha": "0.1"}, {"seed": 1.5}, {"trials": True}, {"out": 3},
    {"variant": 1}, {"variant": "bogus"},
])
def test_config_type_error_is_usage_error(doc, tmp_path, capsys, monkeypatch):
    # the input does not exist: the parser fails before anything reads it
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--config", _config(tmp_path, doc), "solve", "--input", "absent.npy"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("slra: error:") and repr(next(iter(doc))) in err[-1]
    if doc == {"variant": "bogus"}:
        assert err[-1] == ("slra: error: config key 'variant' must be one of "
                           "'da', 'ada', 'mod_ada', got 'bogus'")


@pytest.mark.parametrize("doc", [
    {"experiment": "solve"}, {"experiment": "bogus"}, {"config": "x.json"},
], ids=["experiment-solve", "experiment-bogus", "config"])
def test_config_key_that_is_no_flag_is_usage_error(doc, tmp_path):
    # the subcommand comes from the command line alone, and a config file
    # names no further config file
    proc = _slra(["--config", _config(tmp_path, doc), "--out", "o", "toy"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == \
        f"slra: error: config key {next(iter(doc))!r} names no flag to override"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [[1, 2], 3, "alpha"], ids=["list", "number", "string"])
def test_config_that_is_no_object_is_usage_error(doc, tmp_path):
    proc = _slra(["--config", _config(tmp_path, doc), "--out", "o", "toy"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == \
        f"slra: error: config file must hold a JSON object, got {doc!r}"
    assert not (tmp_path / "o").exists()


_TERM = {"c_re": 1.0, "c_im": 0.0, "zeta_re": 0.0, "zeta_im": 0.5}
_GRID = {"start": 0.0, "step": 1.0, "count": 30}


@pytest.mark.parametrize("doc, key", [
    ({"terms": []}, "terms"),
    ({"terms": [{**_TERM, "c_im": None}], "delta": 1.0, "grid": _GRID}, "c_im"),
    ({"terms": [{k: v for k, v in _TERM.items() if k != "c_im"}], "delta": 1.0,
      "grid": _GRID}, "c_im"),
    ({"terms": [{**_TERM, "c_re": "1.0"}], "delta": 1.0, "grid": _GRID}, "c_re"),
    ({"terms": [_TERM], "delta": 1.0, "grid": {**_GRID, "count": "30"}}, "count"),
    ({"terms": [_TERM], "delta": 1.0, "grid": {**_GRID, "count": 30.5}}, "count"),
    ({"terms": [_TERM], "delta": 1.0, "grid": {**_GRID, "count": 0}}, "count"),
    ({"terms": [_TERM], "delta": 1.0, "grid": {**_GRID, "count": -30}}, "count"),
    ({"terms": [_TERM], "grid": _GRID}, "delta"),
    ({"terms": [_TERM], "delta": 1.0, "grid": [0.0, 1.0, 30]}, "grid"),
    ([_TERM], "terms"),
], ids=["no-grid", "null-amplitude", "no-c_im", "string-amplitude", "string-count",
        "fractional-count", "zero-count", "negative-count", "no-delta", "grid-list",
        "top-level-list"])
def test_malformed_model_json_is_usage_error(doc, key, tmp_path, capsys, monkeypatch):
    (tmp_path / "model.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", "gap:1", "solve", "--input", "model.json"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: model JSON") and repr(key) in err[0]
    assert not (tmp_path / "out").exists()


def test_model_json_whose_samples_overflow_is_usage_error_naming_the_file(tmp_path, capsys,
                                                                         monkeypatch):
    # exp(20 * 39) overflows on the last of the 40 grid points
    doc = {"terms": [{**_TERM, "zeta_re": 20.0}], "delta": 1.0, "grid": {**_GRID, "count": 40}}
    (tmp_path / "model.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", "gap:1", "solve", "--input", "model.json"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: model JSON model.json ")
    assert not (tmp_path / "out").exists()


_SIGMA0_TOO_LARGE = ("error: sigma0 must lie below sqrt(max double) ~ 1.34e154, beyond which "
                     "its square overflows, got {}")
_DATA_TOO_LARGE = ("error: the data's norm ||F|| must lie below sqrt(max double) ~ 1.34e154, "
                   "beyond which ||F||^2 overflows")


@pytest.mark.parametrize("sigma0, scale, message", [
    ("1e200", 1.0, _SIGMA0_TOO_LARGE.format("1e+200")),
    ("gap:2", 1e160, _SIGMA0_TOO_LARGE.format("3.793222348280283e+160")),
    ("1", 1e160, _DATA_TOO_LARGE),
], ids=["sigma0", "gap", "data"])
def test_sigma0_or_data_whose_square_overflows_is_usage_error(sigma0, scale, message, tmp_path,
                                                               capsys, monkeypatch):
    # the README's 16x15 Hankel matrix of rank 2, scaled
    n = np.arange(16)
    np.save(tmp_path / "m.npy", scale * np.cos(0.4 * np.add.outer(n, n[:15])))
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", sigma0, "solve", "--input", "m.npy"]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "out").exists()


def test_non_numeric_matrix_input_is_usage_error(tmp_path, capsys, monkeypatch):
    np.save(tmp_path / "text.npy", np.array([["a", "b"], ["c", "d"]]))
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", "1.5", "solve", "--input", "text.npy"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: matrix input must be numeric, got dtype <U1"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dtype", [np.float16, np.longdouble, np.clongdouble])
def test_matrix_input_that_linalg_cannot_factor_is_usage_error(dtype, tmp_path, capsys,
                                                                monkeypatch):
    np.save(tmp_path / "m.npy", np.random.default_rng(0).standard_normal((14, 12)).astype(dtype))
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", "gap:2", "solve", "--input", "m.npy"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: matrix input")
    assert str(np.dtype(dtype)) in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex64])
def test_matrix_input_of_a_dtype_linalg_factors_is_solved(dtype, tmp_path, monkeypatch):
    a = np.random.default_rng(0).standard_normal((14, 12))
    np.save(tmp_path / "m.npy", (10 * a).astype(dtype))
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", "gap:2", "--iters", "5", "solve", "--input", "m.npy"]) == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["n_iters"] >= 1


def _spoil(path):
    """Rewrite the solve input at ``path`` with one NaN in its data: a
    matrix entry, a signal sample or a model amplitude."""
    if path.suffix == ".npy":
        a = np.load(path)
        a[3, 5] = np.nan
        np.save(path, a)
    elif path.suffix == ".csv":
        header, first, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + first + "1,nan,0\n" + "".join(rows[1:]))
    else:
        doc = json.loads(path.read_text())
        doc["terms"][2]["c_re"] = math.nan
        path.write_text(json.dumps(doc))  # JSON as Python writes it: NaN


@pytest.mark.parametrize("sigma0", ["1.5", "gap:2"])
@pytest.mark.parametrize("name", ["matrix.npy", "signal.csv", "model.json"])
def test_non_finite_input_is_usage_error_naming_the_file(name, sigma0, tmp_path, capsys,
                                                        monkeypatch):
    write_inputs(tmp_path)
    _spoil(tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", sigma0, "solve", "--input", name]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: input {name} has non-finite entries"]
    assert not (tmp_path / "out").exists()


def test_signal_csv_without_samples_is_usage_error(tmp_path, capsys, monkeypatch):
    (tmp_path / "signal.csv").write_text("index,re,im\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", "1.5", "solve", "--input", "signal.csv"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: signal CSV signal.csv holds no samples"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fault", ["shuffled", "gapped"])
def test_signal_csv_whose_index_does_not_step_by_one_is_usage_error(fault, tmp_path, capsys,
                                                                     monkeypatch):
    # a shuffled file would solve a different problem, and a gapped one
    # would be read as unit spacing
    write_inputs(tmp_path)
    header, *rows = (tmp_path / "signal.csv").read_text().splitlines(keepends=True)
    if fault == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    else:
        rows = [f"{3 * j}{r[r.index(','):]}" for j, r in enumerate(rows)]
    (tmp_path / "signal.csv").write_text(header + "".join(rows))
    index = [float(r.split(",")[0]) for r in rows]
    bad = next(j for j in range(1, len(index)) if index[j] != index[j - 1] + 1)
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", "gap:4", "solve", "--input", "signal.csv"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: signal CSV signal.csv: sample row {bad + 1} breaks the index step of 1"]
    assert not (tmp_path / "out").exists()


def test_request_too_large_for_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    # a model JSON may ask for more samples than the machine holds; the
    # failed allocation is raised by a stand-in, so nothing large is made
    def no_memory(model):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12,)")

    write_model_json(tmp_path / "model.json", np.random.default_rng(0), 30)
    monkeypatch.setattr(harness, "sample_signal", no_memory)
    monkeypatch.chdir(tmp_path)
    assert main(["--sigma0", "gap:4", "solve", "--input", "model.json"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: the request does not fit in memory")
    assert not (tmp_path / "out").exists()


def test_config_type_error_subprocess(tmp_path):
    proc = _slra(["--config", _config(tmp_path, {"trials": "2"}), "converge"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr and "'trials'" in proc.stderr


#: runs the command line with every cosine-sum trial ending its process
DEAD_WORKER = """
import os
import sys

from slra import cli, harness


def end_process(item):
    os._exit(3)


if __name__ == "__main__":
    harness._cossum_trial = end_process
    sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_dead_trial_worker_ends_the_run_with_one_error_line(tmp_path):
    script = tmp_path / "dead_worker.py"
    script.write_text(DEAD_WORKER)
    env = {**os.environ, "PYTHONPATH": str(SRC), "SLRA_THREADS": "2"}
    proc = subprocess.run([sys.executable, str(script), "--out", str(tmp_path / "out"),
                           "--trials", "2", "--iters", "5", "converge"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: a trial worker died")


@pytest.mark.parametrize("argv", [
    ["--sigma0", "1.5", "--iters", "10", "solve", "--input", "matrix.npy", "--stop-tol", "0"],
    ["--trials", "1", "--iters", "10", "converge"],
], ids=["solve", "converge"])
def test_a_numerical_failure_exits_1_with_one_error_line(argv, tmp_path, capsys, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLRA_THREADS", "1")  # the converge trial runs in this process
    update, calls = RankObjective.update, []

    def fails_fourth(self, *args, **kw):
        calls.append(None)
        if len(calls) == 4:
            raise np.linalg.LinAlgError("SVD did not converge")
        return update(self, *args, **kw)

    monkeypatch.setattr(RankObjective, "update", fails_fourth)
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: SVD failed at row 3: SVD did not converge"]
    assert not (tmp_path / "out").exists()


def test_config_accepts_int_for_float_and_number_for_sigma0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    cfg = _config(tmp_path, {"alpha": 1, "sigma0": 2, "iters": 5, "stop_tol": 1})
    assert main(["--config", cfg, "solve", "--input", "signal.csv",
                 "--variant", "ada"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["sigma0"] == 2.0


def test_config_gap_setting_drives_a_solve(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    cfg = _config(tmp_path, {"sigma0": "gap:4", "iters": 5})
    assert main(["--config", cfg, "solve", "--input", "signal.csv"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    F, _ = harness.load_solve_input(tmp_path / "signal.csv")
    assert summary["n_iters"] == 5 and summary["sigma0"] == harness.sigma0_heuristic(F, 4)


def _numeric_fields(path):
    """The numbers in a golden file by position: JSON by key path, CSV by
    (line, column), ``.npy`` by flat index."""
    if path.suffix == ".npy":
        return dict(enumerate(np.load(path).ravel().tolist()))
    if path.suffix == ".json":
        def walk(doc, key):
            if isinstance(doc, dict):
                for k, v in doc.items():
                    yield from walk(v, f"{key}.{k}" if key else k)
            elif isinstance(doc, list):
                for i, v in enumerate(doc):
                    yield from walk(v, f"{key}[{i}]")
            elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
                yield key, doc
        return dict(walk(json.loads(path.read_text()), ""))
    fields = {}
    for i, line in enumerate(path.read_text().splitlines()):
        for j, cell in enumerate(line.split(",")):
            try:
                fields[i, j] = float(cell)
            except ValueError:
                pass
    return fields


#: what a number in a golden file can be, in the order changes are listed
_KINDS = ("number", "NaN", "inf", "-inf")


def _kind(x):
    if np.isnan(x):
        return "NaN"
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "number"


def describe_change(old, new):
    """One line on how golden file ``new`` differs from ``old``: the
    largest relative difference of the finite numbers both hold at the
    same position, the positions where a number became NaN or +-inf (or
    NaN or +-inf a number, or each other), and the positions only one of
    them holds."""
    a, b = _numeric_fields(old), _numeric_fields(new)
    both = a.keys() & b.keys()
    kinds = {k: (_kind(a[k]), _kind(b[k])) for k in both}
    rel = max((abs(a[k] - b[k]) / max(abs(a[k]), abs(b[k]))
               for k in both if kinds[k] == ("number", "number") and a[k] != b[k]), default=0.0)
    line = f"largest relative difference {rel:.2g}"
    moved = [(f"{ka} to {kb}", {k for k in both if kinds[k] == (ka, kb)})
             for ka in _KINDS for kb in _KINDS if ka != kb]
    for what, keys in moved + [("only before", a.keys() - b.keys()),
                               ("only after", b.keys() - a.keys())]:
        if keys:
            line += f"; {what}: {', '.join(map(str, sorted(keys, key=str)))}"
    return line


if __name__ == "__main__":
    import tempfile

    for stale in sorted(p for p in GOLDEN.iterdir() if p.name not in CASES):
        shutil.rmtree(stale)
        print(f"{stale.relative_to(GOLDEN.parents[1])}: removed")
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            before = Path(tmp) / "before"
            if (GOLDEN / case).exists():
                shutil.copytree(GOLDEN / case, before)
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            shutil.copytree(run_case(case, Path(tmp)), GOLDEN / case)
            names = {p.name for p in before.glob("*")} | {p.name for p in (GOLDEN / case).iterdir()}
            for name in sorted(names):
                old, new = before / name, GOLDEN / case / name
                label = new.relative_to(GOLDEN.parents[1])
                if not old.exists() or not new.exists():
                    print(f"{label}: {'new' if new.exists() else 'removed'}")
                elif old.read_bytes() != new.read_bytes():
                    print(f"{label}: {describe_change(old, new)}")
