"""Tests of the benchmark itself: reference, checker, tracer, and smoke runs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import svbell.cli  # noqa: E402
from svbell import SVSpec, bell_sv, make_chain  # noqa: E402


def cli_output(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert svbell.cli.main(list(argv)) == 0
    return out.getvalue()


def replace_rows(text: str, rows: list[str]) -> str:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    return "\n".join(lines[: header + 1] + rows) + "\n"


def data_rows(text: str) -> list[str]:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    return lines[header + 1 :]


@pytest.mark.parametrize("gamma, eta, L", [(0.5, 1.0, 3), (0.9, 0.8, 12), (0.3, 0.6, 40)])
def test_closed_form_matches_the_mixture_at_high_mass(gamma, eta, L):
    result = bell_sv(make_chain(L), SVSpec(gamma, mass_threshold=1 - 1e-12), eta)
    lhs, rhs, bell = reference.exact_bell(gamma, eta, L)
    tail = reference.tail_photons(gamma, result.n_max)
    assert 0 <= lhs - result.lhs <= (2 * L - 1) * tail + 1e-12
    assert 0 <= rhs - result.rhs <= tail + 1e-12
    assert abs(bell - result.bell) < 1e-9


def test_checker_accepts_sweep_and_rejects_corruptions():
    text = cli_output("sweep-settings", "--gamma", "0.9", "--L-range", "2:5")
    assert reference.check_sweep_settings(text, gamma=0.9, L_lo=2, L_hi=5) > 0

    flipped = []
    for row in data_rows(text):
        L, lhs, rhs, bell = row.split(",")
        flipped.append(",".join([L, lhs, rhs, repr(-float(bell))]))
    with pytest.raises(reference.CheckFailure):
        reference.check_sweep_settings(replace_rows(text, flipped), gamma=0.9, L_lo=2, L_hi=5)

    # Rows computed for L = 7..10, labelled 2..5.
    other = data_rows(cli_output("sweep-settings", "--gamma", "0.9", "--L-range", "7:10"))
    relabelled = [",".join([str(L)] + row.split(",")[1:]) for L, row in zip(range(2, 6), other)]
    with pytest.raises(reference.CheckFailure):
        reference.check_sweep_settings(replace_rows(text, relabelled), gamma=0.9, L_lo=2, L_hi=5)

    # A smaller n_max than the truncation rule gives would loosen the bound.
    with pytest.raises(reference.CheckFailure):
        reference.check_sweep_settings(text.replace("# n_max: 9", "# n_max: 8"), gamma=0.9, L_lo=2, L_hi=5)


def test_checker_accepts_heatmap_and_rejects_corruptions():
    text = cli_output("heatmap", "--L", "3", "--gamma-range", "0.7:0.7:0.1", "--eta-range", "0.8:1.0:0.05")
    etas = workloads._float_grid(0.8, 1.0, 0.05)
    assert reference.check_heatmap(text, L=3, gammas=[0.7], etas=etas) > 0
    flipped = []
    for row in data_rows(text):
        gamma, eta, bell = row.split(",")
        flipped.append(",".join([gamma, eta, repr(-float(bell))]))
    with pytest.raises(reference.CheckFailure):
        reference.check_heatmap(replace_rows(text, flipped), L=3, gammas=[0.7], etas=etas)
    with pytest.raises(reference.CheckFailure):
        reference.check_heatmap(text, L=3, gammas=[0.7], etas=etas[:-1])


def test_checker_rejects_a_failed_verify_report():
    text = cli_output("verify", "--seed", "3", "--oracle-max-N", "2", "--mc-samples", "20000")
    assert reference.check_verify(text, seed=3, oracle_max_N=2, mc_samples=20000) < 1e-12
    report = json.loads(text)
    report["suites"][1]["passed"] = report["passed"] = False
    with pytest.raises(reference.CheckFailure):
        reference.check_verify(json.dumps(report), seed=3, oracle_max_N=2, mc_samples=20000)


def test_workloads_are_seeded_and_keep_their_shape():
    for name, make in workloads.WORKLOADS.items():
        assert [c.argv for c in make(5)] == [c.argv for c in make(5)], name
        assert [c.argv for c in make(5)] != [c.argv for c in make(6)], name
    sweeps = workloads.settings_sweep(5)
    windows = sorted(tuple(map(int, c.argv[-1].split(":"))) for c in sweeps)
    assert [L for lo, hi in windows for L in range(lo, hi + 1)] == list(range(2, 41))
    cells = workloads._truncation_cells(*workloads.SWEEP_GAMMA_RANGE)
    for command, (lo, hi) in zip(sweeps, cells):
        assert lo <= float(command.argv[2]) <= hi
        assert reference.smallest_n_max(float(command.argv[2]), 0.99) == reference.smallest_n_max(lo, 0.99)
    gains = [float(c.argv[4].split(":")[0]) for c in workloads.gain_eta_grid(5)]
    grid_cells = workloads._truncation_cells(*workloads.GRID_GAMMA_RANGE)
    assert len(gains) == len(grid_cells) and all(lo <= g <= hi for g, (lo, hi) in zip(gains, grid_cells))


def test_tracer_counts_spans_and_restores_the_program():
    original = svbell.chain.joint_distribution
    plain = cli_output("heatmap", "--L", "2", "--gamma-range", "0.4:0.4:0.1", "--eta-range", "0.9:1.0:0.1")
    with Tracer().installed() as tracer:
        traced = cli_output("heatmap", "--L", "2", "--gamma-range", "0.4:0.4:0.1", "--eta-range", "0.9:1.0:0.1")
    assert svbell.chain.joint_distribution is original
    assert traced == plain
    metrics = tracer.metrics()
    assert metrics["cli.commands"] == 1
    assert metrics["chain.bell_sv_calls"] == 4  # two etas, each with the guard re-run
    assert metrics["loss.calls"] > 0 and metrics["singlet.tables"] > 0


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setattr(run.workloads, "WORKLOADS", workloads.SMOKE)
    monkeypatch.setattr(run, "MIN_REPETITIONS", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PAIRS", 1)
    monkeypatch.setattr(run, "MIN_SETUPS", 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    def bench(workload: str, trace: int, capsys) -> dict:
        assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
        result = last_json(capsys.readouterr().out)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        specs = declared["per_layer" if trace else "end_to_end"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {s["name"]: s["unit"] for s in specs}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        return result

    return bench


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_traced_run(smoke, capsys, workload):
    result = smoke(workload, 1, capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["cli.commands"] == len(workloads.SMOKE[workload](1))
    if workload == "settings_sweep":
        assert metrics["loss.calls"] == 0
    if workload == "verify_suites":
        assert metrics["oracle.tables"] > 0 and metrics["lhv.strategies"] > 0


def test_smoke_untraced_run(smoke, capsys):
    result = smoke("gain_eta_grid", 0, capsys)
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "verify_suites", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_reference_tail_is_the_mean_photon_number_minus_the_kept_part():
    gamma = 0.8
    kept = math.fsum(reference.weight(n, gamma) * n for n in range(11))
    assert reference.tail_photons(gamma, 10) == pytest.approx(2 * math.sinh(gamma) ** 2 - kept, rel=1e-12)
