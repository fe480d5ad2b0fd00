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

which prints how each changed file differs and deletes the golden
directories of cases that no longer exist.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slra import harness, solvers
from slra.cli import _parse_snr_levels, build_parser, main

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


def test_converge_identical_across_worker_counts(tmp_path):
    csvs = ("converge_curves.csv", "gtdist.csv", "singvals.csv")
    outputs = []
    for workers in ("1", "2"):
        proc = _slra(["--out", f"out{workers}"] + CASES["converge"], tmp_path,
                     SLRA_THREADS=workers, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / f"out{workers}"
        assert sorted(p.name for p in out.iterdir()) == sorted(csvs + ("converge_summary.json",))
        outputs.append(out)
    for name in csvs:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
    # the recorded config differs only in the output directory
    docs = [json.loads((out / "converge_summary.json").read_text()) for out in outputs]
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
    # the golden problems have at most 15 columns and capture enough values
    # that a row's pass budget min(M, N) / (k + 6) stays below the two
    # passes a truncated attempt needs, so none is made
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SLRA_THREADS", "1")
    results = []
    original = solvers.run
    monkeypatch.setattr(solvers, "run", lambda *a: results.append(original(*a)) or results[-1])
    assert main(["--out", "out"] + CASES[case]) == 0
    assert results[0].full_svds == results[0].n_iters + 1 and results[0].passes == 0


def test_freqest_runs_the_given_levels_and_budget(tmp_path, monkeypatch):
    monkeypatch.setenv("SLRA_THREADS", "1")
    config = harness.ExperimentConfig(experiment="freqest", trials=1, output_dir=tmp_path)
    harness.cmd_freqest(config, (5.0, 20.0), 3)
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


@pytest.mark.parametrize("flags", [
    ["--snr-levels", ""], ["--snr-levels", "20,abc"], ["--snr-levels", "20,"],
    ["--snr-levels", "nan"],
])
def test_freqest_bad_snr_levels_is_usage_error(flags, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--trials", "1", "freqest", *flags])
    assert exc.value.code == 2
    assert "slra: error:" in capsys.readouterr().err
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


@pytest.mark.parametrize("name, argv, threads", [
    ("sigma0", ["--sigma0", "inf", "solve", "--input", "matrix.npy"], None),
    ("alpha", ["--alpha", "inf", "--sigma0", "gap:4", "solve", "--input", "matrix.npy",
               "--variant", "ada"], None),
    *(("rank_tol", ["--sigma0", "1.5", "solve", "--input", "matrix.npy", "--rank-tol", tol],
       None) for tol in ("0", "1", "2")),
    ("sigma0", ["--config", "inf.json", "solve", "--input", "matrix.npy"], None),
    ("SLRA_THREADS", ["--trials", "1", "converge"], "abc"),
], ids=["sigma0-inf", "alpha-inf", "rank-tol-0", "rank-tol-1", "rank-tol-2", "config-1e999",
        "threads-abc"])
def test_bad_value_is_usage_error_before_output(name, argv, threads, tmp_path, capsys,
                                                monkeypatch):
    write_inputs(tmp_path)
    (tmp_path / "inf.json").write_text('{"sigma0": 1e999}')  # JSON reads inf
    monkeypatch.chdir(tmp_path)
    if threads is not None:
        monkeypatch.setenv("SLRA_THREADS", threads)
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]
    assert not (tmp_path / "out").exists()


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


def describe_change(old, new):
    """One line on how golden file ``new`` differs from ``old``: the
    largest relative difference of the numbers both hold at the same
    position, and the positions only one of them holds."""
    a, b = _numeric_fields(old), _numeric_fields(new)
    rel = 0.0
    for key in a.keys() & b.keys():
        x, y = a[key], b[key]
        if x != y and not (np.isnan(x) and np.isnan(y)):
            rel = max(rel, abs(x - y) / max(abs(x), abs(y)))
    line = f"largest relative difference {rel:.2g}"
    for what, keys in (("only before", a.keys() - b.keys()), ("only after", b.keys() - a.keys())):
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
