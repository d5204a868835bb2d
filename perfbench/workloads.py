"""Seeded command lists for the benchmark workloads.

Each workload is a list of ``svbell`` command lines plus, for each, the
check that its output must pass.  The seed fixes every input.  The work a
command does depends on its gain only through the truncation points n_max
at mass 0.99 and at the CLI's 0.999 convergence guard, so each gain range is
cut into the cells on which both are constant and one gain is drawn in each
cell: the seed moves every output value, while the work stays the same, so
run-to-run spread measures the program and not the draw.

settings_sweep
    ``sweep-settings --gamma G`` at eta = 1, one G per cell of [0.9, 1.1],
    each over its own window of three L; the windows together cover 2..40.
    Every L brings two new angles, so nearly every singlet table is built
    cold and the loss channel is never called.  A singlet-kernel change
    shows here; a loss change must show nothing.  The windows are not
    shuffled between cells because the cost of a table depends on its angle.
gain_eta_grid
    One ``heatmap --L 3`` per cell of [0.1, 1.2], over eta = 0.5..1.0 in
    steps of 0.05.  Only two angles occur, so singlet tables are built once
    and reused; binomial thinning dominates.  Gains above 1.2 are left out:
    their cold tables past N = 24 would make this workload singlet-bound,
    which settings_sweep already covers, and gains over the photon-number
    cap exit with an error.
verify_suites
    ``verify`` with seeded suite seeds at the oracle's largest size: many
    small cold singlet tables at random angles, plus the Fock oracle, Monte
    Carlo loss and the local-bound enumeration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import reference

SWEEP_GAMMA_RANGE = (0.9, 1.1)
SWEEP_L_WINDOW = 3
MASS = 0.99  # the CLI default
GUARD_MASS = 0.999  # the CLI's convergence guard
GRID_GAMMA_RANGE = (0.1, 1.2)
GRID_L = 3
GRID_ETA = (0.5, 1.0, 0.05)
VERIFY_RUNS = 3
VERIFY_ORACLE_MAX_N = 10
VERIFY_MC_SAMPLES = 1_000_000


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], float]  # raises reference.CheckFailure; returns |error|


def _truncation_cells(lo: float, hi: float) -> list[tuple[float, float]]:
    """Sub-intervals of [lo, hi], to 1e-4, on which n_max at both masses is constant.

    n_max grows with the gain, so every gain between two grid points of one
    cell has that cell's n_max.
    """
    grid = [i / 10_000 for i in range(round(lo * 10_000), round(hi * 10_000) + 1)]
    keys = [(reference.smallest_n_max(g, MASS), reference.smallest_n_max(g, GUARD_MASS)) for g in grid]
    cells = []
    first = 0
    for i in range(1, len(grid) + 1):
        if i == len(grid) or keys[i] != keys[first]:
            cells.append((grid[first], grid[i - 1]))
            first = i
    return cells


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    """A gain in [lo, hi] with six decimals, exact in the command line and the output."""
    return f"{rng.randint(round(lo * 1e6), round(hi * 1e6)) / 1e6:.6f}"


def settings_sweep(seed: int, gamma_range: tuple = SWEEP_GAMMA_RANGE, window: int = SWEEP_L_WINDOW) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for k, (lo, hi) in enumerate(_truncation_cells(*gamma_range)):
        gamma = _draw(rng, lo, hi)
        L_lo, L_hi = 2 + window * k, 1 + window * (k + 1)
        argv = ("sweep-settings", "--gamma", gamma, "--L-range", f"{L_lo}:{L_hi}")
        check = partial(reference.check_sweep_settings, gamma=float(gamma), L_lo=L_lo, L_hi=L_hi)
        commands.append(Command(argv, check))
    return commands


def _float_grid(lo: float, hi: float, step: float) -> list[float]:
    # The CLI's documented grid: lo + i * step for i = 0 .. floor((hi - lo) / step).
    count = int((hi - lo) / step + 1e-9) + 1
    return [lo + i * step for i in range(count)]


def gain_eta_grid(seed: int, gamma_range: tuple = GRID_GAMMA_RANGE, eta_range: tuple = GRID_ETA) -> list[Command]:
    rng = random.Random(seed)
    etas = _float_grid(*eta_range)
    commands = []
    for lo, hi in _truncation_cells(*gamma_range):
        gamma = _draw(rng, lo, hi)
        argv = (
            "heatmap", "--L", str(GRID_L),
            "--gamma-range", f"{gamma}:{gamma}:0.1",
            "--eta-range", ":".join(str(v) for v in eta_range),
        )
        check = partial(reference.check_heatmap, L=GRID_L, gammas=[float(gamma)], etas=etas)
        commands.append(Command(argv, check))
    return commands


def verify_suites(
    seed: int, runs: int = VERIFY_RUNS, oracle_max_N: int = VERIFY_ORACLE_MAX_N, mc_samples: int = VERIFY_MC_SAMPLES
) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for _ in range(runs):
        suite_seed = rng.randrange(2**31)
        argv = (
            "verify", "--seed", str(suite_seed),
            "--oracle-max-N", str(oracle_max_N), "--mc-samples", str(mc_samples),
        )
        check = partial(reference.check_verify, seed=suite_seed, oracle_max_N=oracle_max_N, mc_samples=mc_samples)
        commands.append(Command(argv, check))
    return commands


WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "settings_sweep": settings_sweep,
    "gain_eta_grid": gain_eta_grid,
    "verify_suites": verify_suites,
}

# Small versions of each workload, for the benchmark's own tests.
SMOKE: dict[str, Callable[[int], list[Command]]] = {
    "settings_sweep": partial(settings_sweep, gamma_range=(0.9, 0.95), window=1),
    "gain_eta_grid": partial(gain_eta_grid, gamma_range=(0.3, 0.4), eta_range=(0.9, 1.0, 0.05)),
    "verify_suites": partial(verify_suites, runs=1, oracle_max_N=2, mc_samples=20_000),
}
