"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussian_series import mean_distance
import svbell.cli
import svbell.sv
from svbell import oracle, singlet
from svbell.chain import make_chain
from svbell.cli import GUARD_MASS, MAX_GRID_POINTS, main, run_verification
from svbell.oracle import mc_thin, oracle_joint_distribution
from svbell.singlet import MAX_PHOTON_NUMBER, _stacked_tables, joint_distribution
from svbell.sv import SVSpec, bell_sv


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def compute_calls(monkeypatch):
    """Names of the computations the CLI starts, in call order."""
    calls = []
    for name in ("bell_sv", "bell_fixed_N", "sv_mixture", "joint_distribution", "run_verification"):
        monkeypatch.setattr(svbell.cli, name, _counting(calls, name, getattr(svbell.cli, name)))
    return calls


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


@pytest.mark.parametrize("eta", ["1", "0.7"])
def test_dist_declares_its_specs_truncation(capsys, eta):
    code, out, _ = run_cli(["dist", "--gamma", "0.8", "--theta", "0.3", "--eta", eta, "--mass", "0.995"], capsys)
    assert code == 0
    metadata, spec = parse_csv(out)[0], SVSpec(0.8, 0.995)
    assert (metadata["mass"], metadata["n_max"]) == (spec.mass, spec.n_max)


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
        ["dist", "--gamma", "5", "--mass", "0.99", "--theta", "0.1"], capsys
    )
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--gamma", "200", "--theta", "0"],
        ["sweep-settings", "--gamma", "200", "--L-range", "2:3"],
        ["heatmap", "--L", "2", "--gamma-range", "200:200:1", "--eta-range", "0.9:1:0.1"],
    ],
)
def test_gains_past_the_float_range_of_cosh4_exit_3(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
        ["verify", "--oracle-max-N", "3.0"],  # run_verification takes integers only
        ["verify", "--mc-samples", "1e6"],
        ["sweep-settings", "--gamma", "nan", "--L-range", "2:60"],  # non-finite gain
        ["sweep-settings", "--gamma", "inf", "--L-range", "2:60"],
        ["heatmap", "--L", "2", "--gamma-range", "0:0.2:0.1", "--eta-range", "0.9:1:0.1"],
        ["heatmap", "--L", "2", "--gamma-range", "0.1:0.2:0.1", "--eta-range", "0.5:1.5:0.5"],
        ["dist", "--gamma", "0.5", "--mass", "0", "--theta", "0.1"],
        # --mass is unused with --N but echoed in config, so it is checked too
        ["dist", "--N", "1", "--theta", "0.1", "--mass", "0"],
        ["sweep-settings", "--N", "1", "--L-range", "2:3", "--mass", "5"],
        ["dist", "--gamma", "0.5", "--cap", "20", "--theta", "0.1"],  # --cap is no longer accepted
        ["sweep-eta", "--N", "1", "--L", "1", "--eta-range", "0.5:1:0.1"],
        # two faults, the second of which is the unreachable truncation mass
        ["dist", "--gamma", "5", "--theta", "3.0"],
        ["heatmap", "--L", "2", "--gamma-range", "5:5.1:0.1", "--eta-range", "0.5:1.5:0.5"],
        ["sweep-settings", "--gamma", "5", "--eta", "1.5", "--L-range", "2:3"],
        ["sweep-settings", "--gamma", "5", "--L-range", "1:3"],
        ["dist", "--gamma", "5", "--theta", "0.1", "--eta", "1.5"],
        # non-finite grid bounds or steps
        ["sweep-eta", "--N", "1", "--L", "2", "--eta-range", "0.5:inf:0.1"],
        ["sweep-eta", "--N", "1", "--L", "2", "--eta-range", "0.5:1:nan"],
        ["sweep-eta", "--N", "1", "--L", "2", "--eta-range", "nan:1:0.1"],
        ["heatmap", "--L", "2", "--gamma-range", "0.1:inf:0.1", "--eta-range", "0.9:1:0.1"],
        ["heatmap", "--L", "2", "--gamma-range=-inf:0.2:0.1", "--eta-range", "0.9:1:0.1"],
    ],
)
def test_invalid_arguments_exit_2(argv, capsys):
    code, _, _ = run_cli(argv, capsys)
    assert code == 2


@pytest.mark.parametrize("state", [["--N", "1"], ["--gamma", "0.5"]])
def test_invalid_mass_message_is_the_same_for_both_states(state, capsys):
    code, out, err = run_cli(["dist", *state, "--theta", "0.1", "--mass", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: mass threshold must lie in (0, 1), got 5.0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--gamma", "0.01", "--theta", "0", "--mass", "1"],  # exited 3
        ["dist", "--N", "1", "--theta", "0", "--mass", "1"],
        ["sweep-settings", "--gamma", "0.1", "--L-range", "2:2", "--mass", "1"],  # exited 0
        ["heatmap", "--L", "2", "--gamma-range", "0.1:0.1:0.1", "--eta-range", "1:1:0.1", "--mass", "1"],
    ],
)
def test_mass_1_is_invalid(argv, capsys, compute_calls):
    # The weights of the infinite mixture never sum to 1; rounding decided
    # whether a finite sum reached it.
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: mass threshold must lie in (0, 1), got 1.0\n"
    assert compute_calls == []


def test_an_unreachable_mass_states_the_weight_sum_in_full(capsys):
    argv = ["dist", "--gamma", "0.744", "--theta", "0", "--mass", "0.999999999999999"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    total = 0.0
    for n in range(61):
        total += svbell.sv.lambda_sq(n, 0.744)
    assert total < 0.999999999999999 and f"{total:.6f}" == "1.000000"
    assert err == (
        f"error: at gain 0.744, the singlet weights up to N = 60 sum to {total!r}, "
        "below the requested mass 0.999999999999999\n"
    )


def test_an_unreachable_mass_in_a_heatmap_keeps_its_message(capsys):
    argv = ["heatmap", "--L", "2", "--gamma-range", "1.9:2.0:0.1", "--eta-range", "0.9:1.0:0.1"]
    assert run_cli(argv, capsys) == (3, "", (
        "error: at gain 2.0, the singlet weights up to N = 60 sum to 0.9391887407867728, "
        "below the requested mass 0.99\n"
    ))


LARGE_L = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-eta", "--N", "1", "--L", LARGE_L, "--eta-range", "0.9:1:0.1"],
        ["sweep-settings", "--N", "1", "--L-range", f"{LARGE_L}:{LARGE_L}"],
        ["sweep-settings", "--gamma", "0.8", "--L-range", f"{LARGE_L}:{LARGE_L}"],
        ["heatmap", "--L", LARGE_L, "--gamma-range", "0.8:0.8:0.1", "--eta-range", "0.9:1:0.1"],
    ],
)
def test_an_L_too_large_for_float_angles_exits_2(argv, capsys, compute_calls):
    # Each exited 1 with an OverflowError from the angle pi / (4L).
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: L={LARGE_L} is too large for float angles: (2L-1) pi overflows\n"
    assert compute_calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-eta", "--N", "1", "--L", "2", "--eta-range", "0.5:1:1e-300"],
        ["sweep-eta", "--N", "1", "--L", "2", "--eta-range", "0:1:1e-6"],  # 1,000,001 points
        ["heatmap", "--L", "2", "--gamma-range=-1e308:1e308:1", "--eta-range", "0.9:1:0.1"],
        ["sweep-settings", "--N", "1", "--L-range", "2:2000000000"],
        ["sweep-settings", "--N", "1", "--L-range", "2:1000002"],  # 1,000,001 settings
    ],
)
def test_oversized_grids_are_rejected_by_the_parser(argv, capsys):
    # Parsing alone: a parser that accepted these grids would not build them here.
    with pytest.raises(SystemExit) as exc:
        svbell.cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"more than {svbell.cli.MAX_GRID_POINTS} points" in capsys.readouterr().err


def test_largest_grid_is_accepted_by_the_parser():
    assert svbell.cli.MAX_GRID_POINTS == 10**6
    # 0, 1e-6, ..., 0.999999: exactly 10**6 points.
    args = svbell.cli.build_parser().parse_args(
        ["sweep-eta", "--N", "1", "--L", "2", "--eta-range", "0:0.999999:1e-6"]
    )
    assert args.eta_range == (0.0, 0.999999, 1e-6)
    args = svbell.cli.build_parser().parse_args(["sweep-settings", "--N", "1", "--L-range", "2:1000001"])
    assert args.L_range == (2, 1000001)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-eta", "--N", "1", "--L", "2", "--eta-range", "0.09:1.0:0.07"],
        ["heatmap", "--L", "2", "--gamma-range", "0.1:0.1:0.1", "--eta-range", "0.09:1.0:0.07"],
        ["heatmap", "--L", "2", "--gamma-range", "0.1:1.4:0.1", "--eta-range", "1.0:1.0:0.1"],
    ],
)
def test_efficiency_grid_never_overshoots_its_upper_bound(argv, capsys):
    # 0.09 + 13 * 0.07 rounds to 1.0000000000000002, an invalid efficiency;
    # 0.1 + 13 * 0.1 to 1.4000000000000001, a gain above the requested one.
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    assert len(rows) == 14
    for flag, text in zip(argv, argv[1:]):
        if flag.endswith("-range"):
            column = [float(row[header.index(flag[2:].removesuffix("-range"))]) for row in rows]
            assert max(column) == column[-1] == float(text.split(":")[1])


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


def test_heatmap_builds_each_row_mixture_once(capsys, monkeypatch):
    calls = []
    counted = _counting(calls, "joint_distribution", svbell.sv.joint_distribution)
    monkeypatch.setattr(svbell.sv, "joint_distribution", counted)
    argv = ["heatmap", "--L", "3", "--gamma-range", "0.7:0.7:0.1", "--eta-range", "0.5:1.0:0.05"]
    n_max, n_max_guard = SVSpec(0.7).n_max, SVSpec(0.7, GUARD_MASS).n_max
    assert n_max < n_max_guard
    # One angle, each table up to the guard mass read once: the closing
    # mixture is read off the adjacent angle's tables, and the guard's pair
    # continues the run mass's.  The tables go with the command, so running
    # it again reads them again.
    for runs in (1, 2):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(parse_csv(out)[2]) == 11
        assert len(calls) == runs * 1 * (n_max_guard + 1)


def test_heatmap_sums_each_weight_once_per_spec(capsys, monkeypatch):
    spec, guard = SVSpec(0.7), SVSpec(0.7, GUARD_MASS)
    expected = (spec.n_max + 1) + (guard.n_max + 1)
    calls = []
    monkeypatch.setattr(svbell.sv, "lambda_sq", _counting(calls, "lambda_sq", svbell.sv.lambda_sq))
    argv = ["heatmap", "--L", "3", "--gamma-range", "0.7:0.7:0.1", "--eta-range", "0.5:1.0:0.1"]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    # The one row reuses the spec the pre-check made, and its weights.
    assert len(calls) == expected


def test_heatmap_sums_an_unreachable_guard_mass_once(capsys, monkeypatch):
    # At gain 1.7 the default mass stops at N = 49, and the guard mass 0.999
    # is out of reach: 50 weights, then 61 for the guard, not 61 per cell.
    spec, chain, etas = SVSpec(1.7), make_chain(3), [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    expected_rows = [["1.7", repr(eta), repr(bell_sv(chain, spec, eta).bell)] for eta in etas]
    calls = []
    monkeypatch.setattr(svbell.sv, "lambda_sq", _counting(calls, "lambda_sq", svbell.sv.lambda_sq))
    argv = ["heatmap", "--L", "3", "--gamma-range", "1.7:1.7:0.1", "--eta-range", "0.5:1.0:0.1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert len(calls) == (spec.n_max + 1) + 61 == 50 + 61
    metadata, _, rows = parse_csv(out)
    assert rows == expected_rows
    assert metadata["truncation"] == {"1.7": [49, spec.mass]}
    assert metadata["convergence_warnings"] == ["L=3 gamma=1.7: guard mass 0.999 unreachable under cap 60"]


def test_sweep_settings_reads_each_table_once(capsys, monkeypatch):
    reads = []
    build = svbell.sv.joint_distribution

    def recorded(N, theta):
        reads.append((N, theta))
        return build(N, theta)

    monkeypatch.setattr(svbell.sv, "joint_distribution", recorded)
    code, _, _ = run_cli(["sweep-settings", "--gamma", "0.8", "--L-range", "2:4"], capsys)
    assert code == 0
    # Three L, one angle each, every table up to the guard mass read once:
    # the closing mixtures are read off the adjacent angles' tables.
    assert len(reads) == len(set(reads)) == 3 * 1 * (SVSpec(0.8, GUARD_MASS).n_max + 1)
    assert {theta for _, theta in reads} == {make_chain(L).theta for L in (2, 3, 4)}


def exact_bell(L, gamma, eta):
    """Bell parameter of the untruncated squeezed vacuum, in closed form."""
    chain = make_chain(L)
    return (2 * L - 1) * mean_distance(gamma, eta, chain.theta) - mean_distance(gamma, eta, chain.theta_prime)


def test_the_readme_command_line_figures_hold(capsys):
    # The README's "Command line" section quotes these figures of the
    # truncated state; a change in any of them must change the README too.
    code, out, _ = run_cli(["sweep-settings", "--gamma", "0.8", "--L-range", "2:60"], capsys)
    metadata, _, rows = parse_csv(out)
    assert code == 0 and len(rows) == len(metadata["convergence_warnings"]) == 59  # one per L
    gaps = {int(L): abs(float(bell) - exact_bell(int(L), 0.8, 1.0)) for L, _, _, bell in rows}
    assert max(gaps, key=gaps.get) == 60 and f"{gaps[60]:.3g}" == "0.0333"

    argv = ["heatmap", "--L", "2", "--gamma-range", "0.1:1.4:0.1", "--eta-range", "0.5:1.0:0.05"]
    code, out, _ = run_cli(argv, capsys)
    metadata, _, rows = parse_csv(out)
    assert code == 0 and len(rows) == 154 and len(metadata["convergence_warnings"]) == 132
    gaps = {(g, e): abs(float(bell) - exact_bell(2, float(g), float(e))) for g, e, bell in rows}
    worst = max(gaps, key=gaps.get)
    assert (float(worst[0]), float(worst[1])) == (1.4, 1.0) and f"{gaps[worst]:.3g}" == "0.0341"
    flagged = {tuple(w.split(":")[0].split()[1:]) for w in metadata["convergence_warnings"]}
    unflagged = [cell for cell in gaps if (f"gamma={cell[0]}", f"eta={cell[1]}") not in flagged]
    assert len(unflagged) == 22 and all(0.1 <= float(g) <= 0.4 for g, _ in unflagged)
    assert max(gaps[cell] for cell in unflagged) <= 1.2e-3


def test_heatmap_rejects_an_unreachable_mass_before_the_first_cell(capsys, compute_calls):
    argv = ["heatmap", "--L", "3", "--gamma-range", "0.1:1.8:0.1", "--eta-range", "0.5:1.0:0.05"]
    code, out, err = run_cli(argv + ["--mass", "0.995"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert compute_calls == []


def test_heatmap_rejects_too_many_cells_before_the_first_cell(capsys, compute_calls):
    # 18 gains x 500,001 efficiencies: each axis is within the parser's bound,
    # the product is not.  The largest gain cannot reach mass 0.995 either,
    # which would exit 3; the cell count is checked first.
    argv = ["heatmap", "--L", "3", "--gamma-range", "0.1:1.8:0.1", "--eta-range", "0.5:1.0:1e-6"]
    code, out, err = run_cli(argv + ["--mass", "0.995"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: grid has 18 x 500001 cells, more than {MAX_GRID_POINTS}\n"
    assert compute_calls == []


def test_heatmap_cell_bound_admits_exactly_max_grid_points(capsys, monkeypatch):
    monkeypatch.setattr(svbell.cli, "MAX_GRID_POINTS", 6)
    argv = ["heatmap", "--L", "2", "--gamma-range", "0.1:0.2:0.1"]
    code, out, _ = run_cli(argv + ["--eta-range", "0.8:1.0:0.1"], capsys)
    assert code == 0
    assert len(parse_csv(out)[2]) == 6
    code, out, err = run_cli(argv + ["--eta-range", "0.7:1.0:0.1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: grid has 2 x 4 cells, more than 6\n"


def test_heatmap_names_an_unreachable_guard_once_per_gain(capsys):
    # Mass 0.99 is reachable at gain 1.7, the guard's 0.999 is not, at any eta.
    argv = ["heatmap", "--L", "3", "--gamma-range", "1.7:1.7:0.1", "--eta-range", "0.5:1.0:0.1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    metadata, _, rows = parse_csv(out)
    assert len(rows) == 6
    assert metadata["convergence_warnings"] == [
        f"L=3 gamma=1.7: guard mass {GUARD_MASS} unreachable under cap 60"
    ]


def test_heatmap_drift_warnings_name_their_cell(capsys):
    argv = ["heatmap", "--L", "2", "--gamma-range", "0.2:0.3:0.1", "--eta-range", "0.5:1.0:0.05"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    metadata, _, rows = parse_csv(out)
    warnings = metadata["convergence_warnings"]
    assert warnings and all("bell moved" in w for w in warnings)
    cells = {f"L=2 gamma={gamma} eta={eta}" for gamma, eta, _ in rows}
    named = [w.partition(":")[0] for w in warnings]
    assert len(set(named)) == len(named) and set(named) <= cells
    assert named[0] == "L=2 gamma=0.2 eta=0.5"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-eta", "--N", "61", "--L", "2", "--eta-range", "0.9:1:0.1"],
        ["sweep-settings", "--N", "61", "--L-range", "2:3"],
    ],
)
def test_fixed_N_sweeps_keep_the_photon_number_range(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: photon number per beam 61 exceeds supported range N <= 60\n"


@pytest.mark.parametrize(
    "argv,keys",
    [
        (["dist", "--N", "1", "--theta", "0.3"], {"N", "gamma", "theta", "eta", "mass"}),
        (["sweep-settings", "--N", "1", "--L-range", "2:3"], {"N", "gamma", "eta", "L_range", "mass"}),
        (["sweep-eta", "--N", "1", "--L", "2", "--eta-range", "0.9:1:0.1"], {"N", "L", "eta_range"}),
        (
            ["heatmap", "--L", "2", "--gamma-range", "0.1:0.1:0.1", "--eta-range", "0.9:1:0.1"],
            {"L", "gamma_range", "eta_range", "mass"},
        ),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_config_echoes_every_parsed_flag_but_the_output_ones(argv, keys, fmt, capsys, tmp_path):
    out_path = tmp_path / "out.txt"
    code, _, _ = run_cli(argv + ["--format", fmt, "--out", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    config = json.loads(text)["config"] if fmt == "json" else parse_csv(text)[0]["config"]
    assert set(config) == keys | {"command"}
    assert config["command"] == argv[0]


def test_one_parser_serves_commands_back_to_back(capsys):
    # The parser is built once per process; an argparse error in between
    # leaves nothing behind for the next command.
    assert svbell.cli.build_parser() is svbell.cli.build_parser()
    code, out, _ = run_cli(["sweep-eta", "--N", "1", "--L", "2", "--eta-range", "0.9:1:0.1"], capsys)
    assert code == 0
    assert parse_csv(out)[0]["config"] == {
        "command": "sweep-eta", "N": 1, "L": 2, "eta_range": [0.9, 1.0, 0.1]
    }
    code, out, err = run_cli(["dist", "--N", "1", "--gamma", "0.5", "--theta", "0.1"], capsys)
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err
    code, out, _ = run_cli(["dist", "--N", "1", "--theta", "0.3"], capsys)
    assert code == 0
    assert parse_csv(out)[0]["config"] == {
        "command": "dist", "N": 1, "gamma": None, "theta": 0.3, "eta": 1.0, "mass": 0.99
    }


def test_outputs_are_deterministic(capsys, tmp_path):
    argv = ["sweep-settings", "--gamma", "0.6", "--L-range", "2:5"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == first


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--N", "1", "--theta", "0.3"],
        ["verify", "--oracle-max-N", "1", "--mc-samples", "1000"],
        ["heatmap", "--L", "2", "--gamma-range", "0.1:0.3:0.1", "--eta-range", "0.5:1.0:0.5"],
    ],
)
def test_unwritable_out_exits_2(argv, capsys, tmp_path, compute_calls):
    out_path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out_path.exists()
    assert compute_calls == []


@pytest.mark.parametrize("existing", [None, "kept\n"])
def test_out_is_left_as_it_was_when_the_command_fails(existing, capsys, tmp_path, compute_calls):
    out_path = tmp_path / "sweep.csv"
    if existing is not None:
        out_path.write_text(existing, encoding="utf-8")
    argv = ["sweep-settings", "--gamma", "5", "--L-range", "2:3", "--out", str(out_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert compute_calls == ["bell_sv"]  # failed in the first cell, after the --out check
    if existing is None:
        assert not out_path.exists()
    else:
        assert out_path.read_text(encoding="utf-8") == existing


def test_interrupted_run_leaves_no_out_file(monkeypatch, tmp_path):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(svbell.cli, "bell_sv", interrupt)
    out_path = tmp_path / "sweep.csv"
    with pytest.raises(KeyboardInterrupt):
        main(["sweep-settings", "--gamma", "0.5", "--L-range", "2:3", "--out", str(out_path)])
    assert not out_path.exists()


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
    # Seeds on which an earlier per-cell z-score check raised false alarms.
    assert run_verification(seed=seed)["passed"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "oracle_max_N, mc_samples, seed",
    [(10, 10, 0), (0, 10, 0), (6, 1, 3)] + [(0, 2**63 - 1, seed) for seed in range(10)],
)
def test_verify_passes_at_the_extreme_sizes(oracle_max_N, mc_samples, seed):
    # The oracle at its largest and smallest sizes; the loss check at one
    # sample, where every binomial draw has n <= 1, and at the largest
    # count, where the sampler's acceptance test needs Stirling's formula.
    assert run_verification(oracle_max_N=oracle_max_N, seed=seed, mc_samples=mc_samples)["passed"]


@pytest.mark.parametrize("seed", [0, 42])
def test_verify_normalization_is_the_worst_cached_table_mass(seed):
    # The suite steps its 20 seeded angles together; each mass must be the
    # one joint_distribution declares.
    rng = random.Random(seed)
    thetas = [rng.uniform(0.0, math.pi / 2) for _ in range(20)]
    expected = max(abs(joint_distribution(N, float(t)).mass - 1.0) for N in range(13) for t in thetas)
    suites = {s["name"]: s for s in run_verification(oracle_max_N=0, seed=seed)["suites"]}
    assert suites["normalization"]["worst_mass_error"] == expected


def test_a_second_verify_reads_every_singlet_table_from_the_cache():
    # The loss suite's N = 3 table at pi/8 is the only one verify asks the
    # cache for, one miss per step N = 0..3; the normalization and oracle
    # suites step their angles together outside it, at any seed.
    singlet._rotation.cache_clear()
    run_verification(oracle_max_N=10, seed=3)
    assert singlet._rotation.cache_info().misses == 4
    run_verification(oracle_max_N=10, seed=4)
    assert singlet._rotation.cache_info().misses == 4


@pytest.mark.parametrize(
    "argv, misses",
    [
        # One ladder N = 0..56, the guard's n_max at gain 1.6, however many
        # gains and efficiencies reuse it; a second heatmap reads it all again.
        (["heatmap", "--L", "2", "--gamma-range", "0.2:1.6:0.2", "--eta-range", "0.9:1.0:0.1"], [57, 57]),
        (["dist", "--N", "60", "--theta", "0.3"], [61, 61]),
        # A fresh angle per L, one ladder N = 0..10 each, every table built
        # once; a second sweep returns to angles whose ladders have gone.
        (["sweep-settings", "--gamma", "0.8", "--L-range", "2:60"], [59 * 11, 2 * 59 * 11]),
    ],
    ids=["heatmap", "dist", "sweep-settings"],
)
def test_the_rotation_cache_serves_the_reuse_within_a_command(argv, misses, capsys):
    # The shipped bound, one full ladder at one angle, is all that a command
    # reuses: each distinct (N, theta) table is one miss, and the cache holds
    # the last ladder whole.
    singlet._rotation.cache_clear()
    for expected in misses:
        assert run_cli(argv, capsys)[0] == 0
        info = singlet._rotation.cache_info()
        assert (info.misses, info.currsize) == (expected, min(expected, MAX_PHOTON_NUMBER + 1))
    assert info.maxsize == MAX_PHOTON_NUMBER + 1


def test_verify_takes_its_oracle_angle_powers_once():
    # One angle set, Alice's and Bob's nine angles, for every N = 0..10.
    oracle._angle_powers.cache_clear()
    run_verification(oracle_max_N=10)
    info = oracle._angle_powers.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 10, 1)


@pytest.mark.parametrize("samples", ["0", str(2**63), "100000000000000000000"])
def test_verify_sample_count_out_of_range_exits_2(samples, capsys, compute_calls):
    code, out, err = run_cli(["verify", "--mc-samples", samples], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: mc_samples must lie in [1, {2**63 - 1}], got {samples}\n"
    assert compute_calls == ["run_verification"]  # no suite ran


def test_verify_parser_defaults_are_run_verifications():
    # cmd_verify passes every option on, so the parser's defaults are the ones that run.
    parameters = inspect.signature(run_verification).parameters.values()
    defaults = {p.name: p.default for p in parameters}
    assert inspect.Parameter.empty not in defaults.values()
    args = vars(svbell.cli.build_parser().parse_args(["verify"]))
    assert {name: args[name] for name in defaults} == defaults
    assert all(type(args[name]) is type(default) for name, default in defaults.items())


def test_verify_negative_seed_exits_2(capsys, compute_calls):
    code, out, err = run_cli(["verify", "--seed", "-1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: seed must be nonnegative, got -1\n"
    assert compute_calls == ["run_verification"]  # no suite ran


@pytest.mark.parametrize(
    "kwargs,error",
    [  # ids: the seed's value, or the argument and its value, then the error
        pytest.param({"seed": -1}, ValueError, id="-1-ValueError"),
        pytest.param({"seed": 1.5}, TypeError, id="1.5-TypeError"),
        pytest.param({"oracle_max_N": 3.0}, TypeError, id="oracle_max_N-3.0-TypeError"),
        pytest.param({"mc_samples": 1e6}, TypeError, id="mc_samples-1e6-TypeError"),
    ],
)
def test_verification_takes_a_nonnegative_integer_seed_before_any_suite(kwargs, error, monkeypatch):
    # random.Random would seed -s like s and take a float; a float size
    # would pass the range checks and fail, if at all, inside a suite.
    def no_suite(*args):
        raise AssertionError("a suite ran before the arguments were checked")

    monkeypatch.setattr(svbell.cli, "_stacked_tables", no_suite)
    with pytest.raises(error):
        run_verification(**kwargs)


def test_verification_echoes_its_sizes_as_ints():
    report = run_verification(oracle_max_N=True, seed=np.int64(2), mc_samples=np.uint8(10))
    sizes = [report[name] for name in ("oracle_max_N", "seed", "mc_samples")]
    assert sizes == [1, 2, 10] and all(type(size) is int for size in sizes)


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
@pytest.mark.parametrize("oracle_max_N", [0, 6, 10])
def test_the_shared_ladder_changes_no_reported_number(seed, oracle_max_N):
    # Each closed-form suite rebuilt from a stack of its own angles alone.
    rng = random.Random(seed)
    thetas = [rng.uniform(0.0, math.pi / 2) for _ in range(20)]
    masses = [np.add.reduce(stack, axis=(-2, -1)) for stack in _stacked_tables(12, thetas)]
    grid = [0.0, math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
    alice = [0.0] * 6 + [0.3, 0.2, math.pi / 16]
    bob = grid + [0.75, 1.5, 3 * math.pi / 16]
    stacks = _stacked_tables(oracle_max_N, [b - a for a, b in zip(alice, bob)])
    diffs = [np.abs(stack - oracle_joint_distribution(N, bob, alice)) for N, stack in enumerate(stacks)]
    suites = {s["name"]: s for s in run_verification(oracle_max_N, seed, 10)["suites"]}
    assert suites["normalization"]["worst_mass_error"] == float(np.max(np.abs(np.array(masses) - 1.0)))
    oracle = suites["oracle_equivalence"]
    assert oracle["worst_abs_diff"] == max(float(diff[:6].max()) for diff in diffs)
    assert oracle["worst_invariance_diff"] == max(float(diff[6:].max()) for diff in diffs)


@pytest.mark.parametrize("seed", [0, 9, 20])
def test_verify_rejects_a_wrong_loss_channel(seed, monkeypatch):
    monkeypatch.setattr(
        svbell.cli, "mc_thin", lambda dist, eta, samples, seed: mc_thin(dist, eta + 0.02, samples, seed)
    )
    suites = {s["name"]: s for s in run_verification(seed=seed)["suites"]}
    assert not suites["loss_channel"]["passed"]
    assert suites["loss_channel"]["worst_l1"] >= suites["loss_channel"]["eps"]


@pytest.mark.parametrize("shift", [0.001, -0.001])
def test_verify_rejects_an_efficiency_off_by_a_thousandth(shift, monkeypatch):
    # At the default 10^10 samples eps is 6.1e-5; a channel 0.001 off lies
    # about 1.7e-3 away in L1.
    monkeypatch.setattr(
        svbell.cli, "mc_thin", lambda dist, eta, samples, seed: mc_thin(dist, eta + shift, samples, seed)
    )
    report = run_verification(oracle_max_N=0)
    assert report["mc_samples"] == 10**10
    loss = {s["name"]: s for s in report["suites"]}["loss_channel"]
    assert not loss["passed"]
    assert loss["worst_l1"] >= loss["eps"]


def test_verify_passes_at_ten_samples(capsys):
    # The L1 bound holds at every sample count: a small n gives a large eps,
    # not a false alarm (the per-cell z-score failed here).
    code, out, _ = run_cli(["verify", "--mc-samples", "10"], capsys)
    assert code == 0
    loss = {s["name"]: s for s in json.loads(out)["suites"]}["loss_channel"]
    assert (loss["passed"], loss["alpha"]) == (True, 1e-3)
    assert loss["worst_l1"] < loss["eps"]


def test_cli_import_needs_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(svbell.__file__).parents[1]))
    probe = "import sys, svbell.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, encoding="utf-8", check=True
    )
    assert result.stdout.strip() == "[]"


def test_verify_imports_nothing_of_numpy_random():
    # numpy.random loads OpenSSL's hash module; verify draws from the random
    # module.  numpy 2 imports numpy.random only on first use.
    env = dict(os.environ, PYTHONPATH=str(Path(svbell.__file__).parents[1]))
    probe = (
        "import sys\n"
        "from svbell.cli import main\n"
        "code = main(['verify', '--oracle-max-N', '0', '--mc-samples', '10'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('numpy.') and 'random' in m), file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, encoding="utf-8", check=True
    )
    assert result.stderr.splitlines()[-1] == "0 []"


def test_verify_respects_oracle_budget(capsys):
    code, out, _ = run_cli(
        ["verify", "--oracle-max-N", "8", "--seed", "1", "--mc-samples", "20000"], capsys
    )
    assert code == 0
    assert json.loads(out)["oracle_max_N"] == 8


@pytest.mark.parametrize("oracle_max_N", [7, 10])
def test_verify_checks_invariance_at_every_oracle_size(oracle_max_N, monkeypatch):
    # An oracle whose last invariance pair is wrong at oracle_max_N alone.
    oracle = svbell.cli.oracle_joint_distribution

    def skewed(N, theta, theta_alice):
        tables = oracle(N, theta, theta_alice)
        if N == oracle_max_N:
            tables[-1] += 1e-9
        return tables

    monkeypatch.setattr(svbell.cli, "oracle_joint_distribution", skewed)
    suites = {s["name"]: s for s in run_verification(oracle_max_N=oracle_max_N)["suites"]}
    suite = suites["oracle_equivalence"]
    assert not suite["passed"]
    assert suite["worst_invariance_diff"] > 1e-10 >= suite["worst_abs_diff"]


@pytest.mark.parametrize(
    "name,suite,field",
    [
        ("oracle_joint_distribution", "oracle_equivalence", "worst_abs_diff"),
        ("mc_thin", "loss_channel", "worst_l1"),
    ],
)
def test_verify_fails_on_a_nan_table(name, suite, field, monkeypatch):
    # Python's max(0.0, nan) is 0.0, so a running max must not drop a NaN.
    real = getattr(svbell.cli, name)

    def with_nan(*args, **kwargs):
        table = real(*args, **kwargs)
        getattr(table, "probs", table)[..., 0, 0] = math.nan  # an array, or mc_thin's table
        return table

    monkeypatch.setattr(svbell.cli, name, with_nan)
    report = {s["name"]: s for s in run_verification(oracle_max_N=0, mc_samples=10)["suites"]}[suite]
    assert not report["passed"] and math.isnan(report[field])


def test_verify_reports_exact_local_minima():
    suite = {s["name"]: s for s in run_verification(oracle_max_N=0)["suites"]}["lhv_bound"]
    assert suite == {
        "name": "lhv_bound",
        "passed": True,
        "minima": [
            {"L": 2, "cap": 3, "minimum": 0.0},
            {"L": 3, "cap": 2, "minimum": 0.0},
            {"L": 4, "cap": 12, "minimum": 0.0},
        ],
    }


HALF_PI = 0.5 * math.pi
# Integers up to 10**400 of either sign, small ones (the valid ranges) often.
_INTS = st.one_of(st.integers(-3, 70), st.integers(-(10**400), 10**400)).map(str)
_FLOATS = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.0, 1.0, HALF_PI]
        + [math.nextafter(x, d) for x in (1.0, HALF_PI) for d in (0.0, 4.0)]
    ),
    st.floats(-0.5, 2.5),
    st.floats(),
).map(repr)
_INT_POINT = _INTS.map(lambda x: f"{x}:{x}")
_FLOAT_POINT = st.tuples(_FLOATS, _FLOATS).map(lambda p: f"{p[0]}:{p[0]}:{p[1]}")
# Required and optional flags of each subcommand; every range holds one point at most.
_COMMANDS = {
    "dist": ({"theta": _FLOATS}, {"eta": _FLOATS, "mass": _FLOATS}),
    "sweep-settings": ({"L-range": _INT_POINT}, {"eta": _FLOATS, "mass": _FLOATS}),
    "sweep-eta": ({"N": _INTS, "L": _INTS, "eta-range": _FLOAT_POINT}, {}),
    "heatmap": ({"L": _INTS, "gamma-range": _FLOAT_POINT, "eta-range": _FLOAT_POINT}, {"mass": _FLOATS}),
    "verify": ({}, {"oracle-max-N": _INTS, "seed": _INTS, "mc-samples": _INTS}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    flags = dict(required)
    if command in ("dist", "sweep-settings"):  # exactly one of --N and --gamma
        flags.update(draw(st.sampled_from([{"N": _INTS}, {"gamma": _FLOATS}])))
    flags.update({name: values for name, values in optional.items() if draw(st.booleans())})
    # --flag=value, so that argparse does not take a value such as -inf for a flag.
    return [command] + [f"--{name}={draw(values)}" for name, values in flags.items()]


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
@example(argv=["sweep-eta", "--N=1", f"--L={LARGE_L}", "--eta-range=0.9:1:0.1"])
def test_every_command_line_exits_0_to_3(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    assert code in (0, 1, 2, 3)
    if code >= 2:
        assert stdout.getvalue() == ""
        assert "error: " in stderr.getvalue() and "Traceback" not in stderr.getvalue()
