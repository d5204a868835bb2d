"""Command-line interface: outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import svbell.cli
from svbell.cli import main, run_verification
from svbell.oracle import mc_thin


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    metadata = {}
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            metadata[key] = json.loads(value)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return metadata, header, rows


def test_dist_two_photon_table(capsys):
    code, out, _ = run_cli(["dist", "--N", "1", "--theta", "0.3927"], capsys)
    assert code == 0
    metadata, header, rows = parse_csv(out)
    assert header == ["n", "m", "p"]
    assert len(rows) == 4
    assert metadata["mass"] == pytest.approx(1.0, abs=1e-9)
    table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    assert table[(0, 0)] == pytest.approx(math.cos(0.3927) ** 2 / 2, rel=1e-10)
    assert table[(0, 1)] == pytest.approx(math.sin(0.3927) ** 2 / 2, rel=1e-10)
    assert metadata["config"]["N"] == 1


def test_dist_sv_diagonal_support(capsys):
    code, out, _ = run_cli(["dist", "--gamma", "0.8", "--eta", "1", "--theta", "0"], capsys)
    assert code == 0
    metadata, _, rows = parse_csv(out)
    assert metadata["mass"] >= 0.99
    assert metadata["n_max"] >= 5
    for n_str, m_str, p_str in rows:
        if n_str != m_str:
            assert float(p_str) == 0.0


def test_dist_json_mirrors_csv(capsys):
    args = ["dist", "--N", "2", "--theta", "0.5"]
    code, csv_out, _ = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0
    code, json_out, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(json_out)
    _, header, rows = parse_csv(csv_out)
    assert payload["columns"] == header
    assert len(payload["rows"]) == len(rows)
    assert payload["rows"][1][2] == float(rows[1][2])


def test_dist_cap_exceeded_exit_code(capsys):
    code, _, err = run_cli(
        ["dist", "--gamma", "5", "--mass", "0.99", "--cap", "20", "--theta", "0.1"], capsys
    )
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--theta", "0.1"],  # neither state selected
        ["dist", "--N", "1", "--gamma", "0.5", "--theta", "0.1"],  # both selected
        ["dist", "--N", "1", "--theta", "3.0"],  # angle out of range
        ["dist", "--N", "70", "--theta", "0.1"],  # photon number out of range
        ["dist", "--N", "1", "--theta", "0.1", "--eta", "1.5"],
        ["sweep-eta", "--N", "1", "--L", "2", "--eta-range", "0.5:1.5:0.1"],
        ["sweep-settings", "--N", "1", "--L-range", "1:5"],
        ["sweep-settings", "--N", "1", "--L-range", "5"],
        ["verify", "--oracle-max-N", "12"],
        ["sweep-settings", "--gamma", "nan", "--L-range", "2:60"],  # non-finite gain
        ["sweep-settings", "--gamma", "inf", "--L-range", "2:60"],
        ["heatmap", "--L", "2", "--gamma-range", "0:0.2:0.1", "--eta-range", "0.9:1:0.1"],
        ["heatmap", "--L", "2", "--gamma-range", "0.1:0.2:0.1", "--eta-range", "0.5:1.5:0.5"],
        ["dist", "--gamma", "0.5", "--mass", "0", "--theta", "0.1"],
        ["dist", "--gamma", "0.5", "--cap", "61", "--theta", "0.1"],
        ["sweep-eta", "--N", "1", "--L", "1", "--eta-range", "0.5:1:0.1"],
    ],
)
def test_invalid_arguments_exit_2(argv, capsys):
    code, _, _ = run_cli(argv, capsys)
    assert code == 2


def test_sweep_settings_fixed_component(capsys):
    code, out, _ = run_cli(["sweep-settings", "--N", "1", "--L-range", "2:12"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["L", "lhs", "rhs", "bell"]
    assert [int(r[0]) for r in rows] == list(range(2, 13))
    bells = [float(r[3]) for r in rows]
    assert bells[0] == pytest.approx(1 - math.sqrt(2), abs=1e-12)
    assert all(a > b for a, b in zip(bells, bells[1:]))
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[1]) - float(row[2]), abs=1e-12)


def test_sweep_settings_sv_metadata(capsys):
    code, out, _ = run_cli(["sweep-settings", "--gamma", "0.8", "--L-range", "2:4"], capsys)
    assert code == 0
    metadata, _, rows = parse_csv(out)
    assert metadata["n_max"] == 7
    assert 0.99 <= metadata["mass"] < 1.0
    # 0.99 truncation moves the Bell parameter by more than 1e-3 here, and
    # the convergence guard must say so.
    assert any("bell moved" in w for w in metadata["convergence_warnings"])
    assert len(rows) == 3


def test_sweep_eta_brackets_the_threshold(capsys):
    code, out, _ = run_cli(
        ["sweep-eta", "--N", "1", "--L", "2", "--eta-range", "0.8:0.86:0.02"], capsys
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["eta", "bell"]
    values = {float(r[0]): float(r[1]) for r in rows}
    assert values[0.8] > 0.0
    assert min(values) == 0.8 and max(values) > 0.85
    assert values[max(values)] < 0.0


def test_heatmap_rows_and_signs(capsys):
    code, out, _ = run_cli(
        [
            "heatmap",
            "--L",
            "2",
            "--gamma-range",
            "0.1:0.3:0.1",
            "--eta-range",
            "0.5:1.0:0.5",
        ],
        capsys,
    )
    assert code == 0
    metadata, header, rows = parse_csv(out)
    assert header == ["gamma", "eta", "bell"]
    assert len(rows) == 6  # three gains, two efficiencies, gain-major order
    gammas = [float(r[0]) for r in rows]
    assert gammas == sorted(gammas)
    cells = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    assert all(v >= 0.0 for (g, e), v in cells.items() if e == 0.5)
    assert cells[(0.1, 1.0)] < 0.0  # violation at high efficiency, small gain
    assert abs(cells[(0.1, 1.0)]) < 0.01  # vacuum limit: bell -> 0
    assert "truncation" in metadata


def test_outputs_are_deterministic(capsys, tmp_path):
    argv = ["sweep-settings", "--gamma", "0.6", "--L-range", "2:5"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == first


def test_verify_passes_and_is_deterministic(capsys):
    code, first, err = run_cli(["verify", "--seed", "42", "--mc-samples", "50000"], capsys)
    assert code == 0
    report = json.loads(first)
    assert report["passed"] is True
    assert {s["name"] for s in report["suites"]} == {
        "normalization",
        "oracle_equivalence",
        "lhv_bound",
        "loss_channel",
    }
    assert "normalization: pass" in err
    code, second, _ = run_cli(["verify", "--seed", "42", "--mc-samples", "50000"], capsys)
    assert code == 0
    assert first == second


@pytest.mark.parametrize("seed", [9, 20])
def test_verify_passes_on_seeds_that_tripped_the_per_cell_threshold(seed):
    # Max |z| over both 4 x 4 tables exceeded 3 at these seeds.
    assert run_verification(seed=seed)["passed"]


@pytest.mark.parametrize("seed", [0, 9, 20])
def test_verify_rejects_a_wrong_loss_channel(seed, monkeypatch):
    monkeypatch.setattr(
        svbell.cli, "mc_thin", lambda dist, eta, samples, seed: mc_thin(dist, eta + 0.02, samples, seed)
    )
    suites = {s["name"]: s for s in run_verification(seed=seed)["suites"]}
    assert not suites["loss_channel"]["passed"]
    assert suites["loss_channel"]["worst_sigma"] > suites["loss_channel"]["sigma_threshold"]


def test_cli_import_needs_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(svbell.__file__).parents[1]))
    probe = "import sys, svbell.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_verify_respects_oracle_budget(capsys):
    code, out, _ = run_cli(
        ["verify", "--oracle-max-N", "8", "--seed", "1", "--mc-samples", "20000"], capsys
    )
    assert code == 0
    assert json.loads(out)["oracle_max_N"] == 8
