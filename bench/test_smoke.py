"""Smoke test of the benchmark at tiny sizes.

Every workload runs one round with its checks, a traced round accounts
for its time, each check rejects a perturbed output, and the entry point
refuses to run without the program.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import slra.harness  # noqa: E402
import slra.solvers  # noqa: E402
import slra.subspace  # noqa: E402
from slra.harness import METHODS, ExperimentConfig  # noqa: E402
from slra.signals import four_tone_model, sample_signal  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def _round(workload, workdir, tracer=None, seed=7):
    workload.prepare(seed, workdir)
    meter = workloads.Meter(tracer)
    workload.run_round(0, meter)
    return meter


def _reference(workload):
    meter = workloads.Meter(certify=True)
    workload.reference(meter)
    assert meter.failed == 0
    assert len(meter.gaps) >= meter.attempted and all(g >= 0 for g in meter.gaps)
    return meter


def test_converge_round(tmp_path):
    converge = workloads.Converge(iters=5)
    meter = _round(converge, tmp_path)
    assert (meter.attempted, meter.failed, meter.iters) == (1, 0, 15)
    assert len(meter.wall) == 1 and meter.gaps == []
    assert len(_reference(converge).gaps) == 3


def test_freqest_round(tmp_path):
    freqest = workloads.Freqest(snr_dbw=25.0)
    meter = _round(freqest, tmp_path)
    assert (meter.attempted, meter.failed) == (1, 0)
    assert 0 < meter.iters < 2000
    assert len(_reference(freqest).gaps) == 1


def test_solve_round(tmp_path):
    solve = workloads.Solve(rows=range(30, 36), reference_rows=range(30, 33))
    meter = _round(solve, tmp_path)
    assert (meter.attempted, meter.failed) == (6, 0)
    assert len(meter.wall) == 6
    assert len(_reference(solve).gaps) == 3


def test_calibration_samples_after_every_operation(tmp_path):
    calibration = workloads.Calibration()
    assert calibration.times == []
    converge = workloads.Converge(iters=5)
    converge.prepare(7, tmp_path)
    meter = workloads.Meter(calibration=calibration)
    converge.run_round(0, meter)
    converge.run_round(1, meter)
    assert len(calibration.times) >= 2
    assert calibration.scale() > 0


def test_solve_pool_is_stratified():
    pool = workloads._stratified_pool(np.random.default_rng(0), tuple(range(30, 66)) * 2)
    assert sorted(r for r, _, _ in pool) == sorted(list(range(30, 66)) * 2)
    for fmt in workloads.FORMATS:
        variants = [v for _, f, v in pool if f == fmt]
        allowed = workloads.JSON_VARIANTS if fmt == "json" else slra.solvers.VARIANTS
        assert len(variants) == 24 and set(variants) == set(allowed)
        assert len(set(variants.count(v) for v in allowed)) == 1


def test_traced_round_accounts_for_its_time(tmp_path):
    originals = (np.linalg.svd, slra.solvers.run, slra.harness.cmd_solve)
    tracer = Tracer()
    meter = _round(workloads.Solve(rows=range(30, 33)), tmp_path, tracer)
    assert (np.linalg.svd, slra.solvers.run, slra.harness.cmd_solve) == originals

    names, self_t, root_total = tracer.self_times()
    assert min(self_t) >= 0.0
    assert np.isclose(float(np.sum(self_t)), root_total, rtol=1e-9)
    assert root_total <= sum(meter.wall)
    metrics = tracer.layer_metrics(1)
    assert metrics["cli.main.calls"] == 3
    assert metrics["solvers.run.calls"] == 3
    assert metrics["solvers.run.iters"] == meter.iters
    assert metrics["solvers.trace_csv.calls"] == 3
    assert metrics["envelope.update.calls"] >= meter.iters
    assert metrics["linalg.svd_uv.calls"] >= metrics["envelope.update.calls"]
    assert metrics["esprit.hankel_error.calls"] == 0
    assert 0 < metrics["envelope.update.active_mean"] <= 30
    for layer in LAYERS:
        assert f"{layer}.self_s" in metrics and f"{layer}.calls" in metrics


def _converge_report(tmp_path):
    config = ExperimentConfig("converge", trials=1, iters=8, seed=3, output_dir=tmp_path)
    return slra.harness.cmd_converge(config)


def test_converge_checks_reject_perturbed_curves(tmp_path):
    report = _converge_report(tmp_path)
    checks.check_converge(report, METHODS)
    checks.check_converge_files(tmp_path, METHODS, 8)

    swapped = _converge_report(tmp_path)
    swapped.primal_curves, swapped.dual_curves = report.dual_curves, report.primal_curves
    with pytest.raises(checks.CheckFailed, match="weak duality"):
        checks.check_converge(swapped, METHODS)

    falling = _converge_report(tmp_path)
    falling.dual_curves["ada"] = falling.dual_curves["ada"][::-1].copy()
    with pytest.raises(checks.CheckFailed, match="decreases"):
        checks.check_converge(falling, METHODS)

    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_converge_files(tmp_path, METHODS, 9)


def test_freqest_checks_reject_perturbed_solutions():
    sub = slra.subspace.HankelSubspace(129, 129)
    x = sub.from_vector(sample_signal(four_tone_model()))
    checks.check_freqest_solution(x)

    bumped = x.copy()
    bumped[0, 1] += 1e-6 * np.abs(x).max()
    with pytest.raises(checks.CheckFailed, match="not Hankel"):
        checks.check_freqest_solution(bumped)

    fifth_tone = sub.from_vector(np.exp(0.3j * np.arange(257)))
    with pytest.raises(checks.CheckFailed, match="rank 5"):
        checks.check_freqest_solution(x + fifth_tone)

    study = {"converged_fraction": 0.5, "frob_diff": np.zeros(2), "l2_diff": np.zeros(2)}
    with pytest.raises(checks.CheckFailed, match="converged"):
        checks.check_freqest_study(study, 2)


def _solve_output(tmp_path):
    solve = workloads.Solve(rows=range(40, 49))
    solve.prepare(5, tmp_path)
    argv = next(a for a in solve.requests if a[-1] == "da" and a[-3].endswith(".npy"))
    with open(tmp_path / "stdout", "w") as sink:
        assert solve._send(argv, sink) == 0
    checks.check_solve_output(solve.out)
    return solve.out


def _perturbed(out, tmp_path, name):
    copy = tmp_path / name
    shutil.copytree(out, copy)
    return copy


def test_solve_checks_reject_perturbed_outputs(tmp_path):
    out = _solve_output(tmp_path)

    swapped = _perturbed(out, tmp_path, "swapped")
    lines = (swapped / "trace.csv").read_text().splitlines()
    rows = [r.split(",") for r in lines[1:]]
    body = [",".join([r[0], r[2], r[1]] + r[3:]) for r in rows]
    (swapped / "trace.csv").write_text("\n".join(lines[:1] + body) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_solve_output(swapped)

    inverted = _perturbed(out, tmp_path, "inverted")
    summary = json.loads((inverted / "summary.json").read_text())
    summary["final_primal"], summary["final_dual"] = summary["final_dual"], summary["final_primal"]
    (inverted / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(checks.CheckFailed, match="final_primal"):
        checks.check_solve_output(inverted)

    hankel_part = _perturbed(out, tmp_path, "hankel_part")
    lam = np.load(hankel_part / "lambda_star.npy")
    np.save(hankel_part / "lambda_star.npy", lam + 1e-6 * np.linalg.norm(lam))
    with pytest.raises(checks.CheckFailed, match="Hankel component"):
        checks.check_solve_output(hankel_part)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "solve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
