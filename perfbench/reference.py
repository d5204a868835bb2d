"""Exact reference for the squeezed-vacuum Bell parameter and the output checks.

Nothing here imports svbell: the reference shares no code with the program
it checks.

The modes Alice and Bob count form a zero-mean two-mode Gaussian state, and
the difference of their photon counts follows a discrete Laplace law, so
(Weedbrook et al., RMP 84, 621 (2012))

    <|m - n|>_theta = 2A / sqrt(1 + 4A),
    A = eta s^2 (1 + eta s^2 - eta c^2 cos^2 theta)
      = eta s^2 (1 - eta + eta c^2 sin^2 theta),

with s = sinh(gamma) and c = cosh(gamma).  The second form of A is the same
number without the cancellation the first has at small theta.

The program sums the singlet components up to n_max and drops the rest.
Every dropped component N contributes a value in [0, N] to <|m - n|>, so a
truncated output lies below the exact value by at most the dropped tail:

    0 <= exact - truncated <= (2L - 1) T   for the LHS,
    0 <= exact - truncated <= T            for the RHS,
    -T <= exact - truncated <= (2L - 1) T  for the Bell parameter,

where T = sum_{N > n_max} lambda_N^2 N.  The checks below enforce exactly
these bounds, reading n_max from the output's own metadata.
"""

from __future__ import annotations

import json
import math

# Slack for rounding in the program's sums and in the reference itself.
ROUNDING_TOL = 1e-9


def weight(N: int, gamma: float) -> float:
    """lambda_N^2: weight of the 2N-photon singlet in the squeezed vacuum."""
    return (N + 1) * math.tanh(gamma) ** (2 * N) / math.cosh(gamma) ** 4


def smallest_n_max(gamma: float, mass: float, cap: int = 60) -> int | None:
    """Smallest n_max whose cumulative weight reaches ``mass``; None above the cap."""
    cumulative = 0.0
    for n in range(cap + 1):
        cumulative += weight(n, gamma)
        if cumulative >= mass:
            return n
    return None


def covered_mass(gamma: float, n_max: int) -> float:
    return math.fsum(weight(n, gamma) for n in range(n_max + 1))


def tail_photons(gamma: float, n_max: int) -> float:
    """T = sum_{N > n_max} lambda_N^2 N, summed directly (no cancellation)."""
    total = 0.0
    N = n_max + 1
    while True:
        term = weight(N, gamma) * N
        total += term
        if term <= 1e-17 * total or N > n_max + 100_000:
            return total
        N += 1


def mean_abs_difference(gamma: float, eta: float, theta: float) -> float:
    s2 = math.sinh(gamma) ** 2
    c2 = math.cosh(gamma) ** 2
    a = eta * s2 * (1.0 - eta + eta * c2 * math.sin(theta) ** 2)
    return 2.0 * a / math.sqrt(1.0 + 4.0 * a)


def exact_bell(gamma: float, eta: float, L: int) -> tuple[float, float, float]:
    """Exact (LHS, RHS, B) for the untruncated squeezed vacuum."""
    lhs = (2 * L - 1) * mean_abs_difference(gamma, eta, math.pi / (4 * L))
    rhs = mean_abs_difference(gamma, eta, (2 * L - 1) * math.pi / (4 * L))
    return lhs, rhs, lhs - rhs


class CheckFailure(Exception):
    """An output that contradicts the reference or its own metadata."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _within(label: str, gap: float, lo: float, hi: float) -> None:
    """exact - truncated must lie in [lo, hi], up to rounding."""
    tol = ROUNDING_TOL * max(1.0, abs(hi))
    _require(lo - tol <= gap <= hi + tol, f"{label}: exact - output = {gap!r} outside [{lo!r}, {hi!r}]")


def _parse_csv(text: str) -> tuple[dict, dict, list[str], list[list[float]]]:
    config: dict = {}
    metadata: dict = {}
    lines = text.splitlines()
    body = 0
    for body, line in enumerate(lines):
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(": ")
        if key == "config":
            config = json.loads(value)
        else:
            metadata[key] = json.loads(value)
    header = lines[body].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[body + 1 :]]
    _require(all(len(row) == len(header) for row in rows), "ragged CSV rows")
    return config, metadata, header, rows


def _check_truncation(gamma: float, mass: float, n_max: int, covered: float) -> float:
    """Check the declared truncation against the rule; return the tail T."""
    _require(
        n_max == smallest_n_max(gamma, mass),
        f"gamma={gamma!r}: n_max {n_max} is not the smallest reaching mass {mass}",
    )
    _require(
        abs(covered - covered_mass(gamma, n_max)) <= 1e-12,
        f"gamma={gamma!r}: declared mass {covered!r} does not match n_max {n_max}",
    )
    return tail_photons(gamma, n_max)


def check_sweep_settings(text: str, gamma: float, L_lo: int, L_hi: int) -> float:
    """Check a ``sweep-settings --gamma`` CSV; return the worst |B - exact|."""
    config, metadata, header, rows = _parse_csv(text)
    _require(header == ["L", "lhs", "rhs", "bell"], f"unexpected header {header}")
    _require(config.get("gamma") == gamma and config.get("L_range") == [L_lo, L_hi], "config mismatch")
    _require([int(row[0]) for row in rows] == list(range(L_lo, L_hi + 1)), "rows are not L_lo..L_hi in order")
    tail = _check_truncation(gamma, config["mass"], metadata["n_max"], metadata["mass"])
    eta = config["eta"]
    worst = 0.0
    for L_value, lhs, rhs, bell in rows:
        L = int(L_value)
        _require(bell == lhs - rhs, f"L={L}: bell != lhs - rhs")
        x_lhs, x_rhs, x_bell = exact_bell(gamma, eta, L)
        _within(f"L={L} lhs", x_lhs - lhs, 0.0, (2 * L - 1) * tail)
        _within(f"L={L} rhs", x_rhs - rhs, 0.0, tail)
        _within(f"L={L} bell", x_bell - bell, -tail, (2 * L - 1) * tail)
        worst = max(worst, abs(x_bell - bell))
    return worst


def check_heatmap(text: str, L: int, gammas: list[float], etas: list[float]) -> float:
    """Check a ``heatmap`` CSV over the given grid; return the worst |B - exact|."""
    config, metadata, header, rows = _parse_csv(text)
    _require(header == ["gamma", "eta", "bell"], f"unexpected header {header}")
    _require(config.get("L") == L, "config mismatch")
    expected = [(g, e) for g in gammas for e in etas]
    _require([(row[0], row[1]) for row in rows] == expected, "rows do not cover the requested grid")
    tails = {}
    for gamma in gammas:
        n_max, covered = metadata["truncation"][repr(gamma)]
        tails[gamma] = _check_truncation(gamma, config["mass"], n_max, covered)
    worst = 0.0
    for gamma, eta, bell in rows:
        x_bell = exact_bell(gamma, eta, L)[2]
        tail = tails[gamma]
        _within(f"gamma={gamma!r} eta={eta!r} bell", x_bell - bell, -tail, (2 * L - 1) * tail)
        worst = max(worst, abs(x_bell - bell))
    return worst


def check_verify(text: str, seed: int, oracle_max_N: int, mc_samples: int) -> float:
    """Check a ``verify`` JSON report; return its worst oracle or mass error."""
    report = json.loads(text)
    _require(
        (report["seed"], report["oracle_max_N"], report["mc_samples"]) == (seed, oracle_max_N, mc_samples),
        "report does not echo its configuration",
    )
    suites = {suite["name"]: suite for suite in report["suites"]}
    _require(
        set(suites) == {"normalization", "oracle_equivalence", "lhv_bound", "loss_channel"},
        f"unexpected suites {sorted(suites)}",
    )
    _require(report["passed"] and all(s["passed"] for s in suites.values()), "verify did not pass")
    return max(suites["oracle_equivalence"]["worst_abs_diff"], suites["normalization"]["worst_mass_error"])
