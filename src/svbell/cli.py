"""Command-line front end: count tables, Bell sweeps, verification suites.

CSV is the canonical output (fixed headers, UTF-8, '.' decimal separator,
rows ordered lexicographically in the sweep variables); JSON mirrors it.
Every output embeds its configuration (every parsed flag except --format
and --out) and truncation mass, so any figure can be regenerated from its
own data file.  The parser checks the syntax and size of each range; every
value is checked by the library code that uses it, and a heatmap's cell
count by the command.

Exit codes: 0 ok, 1 verification failure, 2 invalid arguments or an
unwritable --out path (found before any computation), 3 the weights up to
60 photons per beam sum to less than --mass.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .chain import BellBreakdown, ChainSpec, bell_fixed_N, bell_sv, make_chain
from .lhv import lhv_minimum
from .loss import binomial_thin, check_efficiency
from .oracle import (
    MAX_MC_SAMPLES,
    MAX_ORACLE_PHOTON_NUMBER,
    l1_deviation_bound,
    mc_thin,
    oracle_joint_distribution,
)
from .singlet import MAX_PHOTON_NUMBER, _table_masses, joint_distribution
from .sv import CapExceededError, SVSpec, _at_mass, check_mass_threshold, sv_mixture

_HALF_PI = 0.5 * math.pi

# Figure-pipeline convergence guard: squeezed-vacuum sweeps are repeated at
# this mass threshold and flagged when the Bell parameter moves too much.
GUARD_MASS = 0.999
GUARD_TOL = 1e-3

# Largest number of points a --*-range grid, or a heatmap's cells, may hold.
MAX_GRID_POINTS = 10**6


def _parse_int_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:b with integers, got {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if hi - lo + 1 > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
    return lo, hi


def _parse_float_range(text: str) -> tuple[float, float, float]:
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:b:step, got {text!r}")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise argparse.ArgumentTypeError(f"range bounds and step must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    # _grid's point count is floor of this plus one; hi - lo may overflow to inf.
    if (hi - lo) / step + 1e-9 >= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
    return lo, hi, step


def _grid(lo: float, hi: float, step: float) -> list[float]:
    # lo + i * step can overshoot hi by an ulp (0.09 + 13 * 0.07 > 1.0, out of
    # range for an efficiency), so every point is clamped to hi.
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [min(lo + i * step, hi) for i in range(count)]


def _write(out: Optional[str], text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(args: argparse.Namespace, metadata: dict, columns: Sequence[str], rows: list[tuple]) -> None:
    config = {k: v for k, v in vars(args).items() if k not in ("func", "format", "out")}
    if args.format == "json":
        payload = {
            "config": config,
            "metadata": metadata,
            "columns": list(columns),
            "rows": [list(row) for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"# config: {json.dumps(config, sort_keys=True)}"]
        for key in sorted(metadata):
            lines.append(f"# {key}: {json.dumps(metadata[key], sort_keys=True)}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(map(str, row)))
        text = "\n".join(lines) + "\n"
    _write(args.out, text)


def cmd_dist(args: argparse.Namespace) -> int:
    if args.N is not None:
        check_mass_threshold(args.mass)  # unused with --N, but echoed in config
        dist = binomial_thin(joint_distribution(args.N, args.theta), args.eta)
        metadata = {"mass": dist.mass}
    else:
        spec = SVSpec(gamma=args.gamma, mass_threshold=args.mass)
        dist = sv_mixture(args.theta, spec, args.eta)
        metadata = {"mass": spec.mass, "n_max": spec.n_max}
    rows = [
        (n, m, float(dist.probs[n, m]))
        for n in range(dist.max_count + 1)
        for m in range(dist.max_count + 1)
    ]
    _emit(args, metadata, ("n", "m", "p"), rows)
    return 0


def _sv_bell_with_guard(
    chain: ChainSpec, spec: SVSpec, guard: SVSpec, eta: float, name_eta: bool = False
) -> tuple[BellBreakdown, Optional[str]]:
    """bell_sv at spec, checked against the same state at the guard mass.

    Drift warnings name eta if ``name_eta``; an unreachable guard mass does not.
    """
    result = bell_sv(chain, spec, eta)
    if spec.mass_threshold >= GUARD_MASS:
        return result, None
    where = f"L={chain.L} gamma={spec.gamma}"
    try:
        tighter = bell_sv(chain, guard, eta)
    except CapExceededError:
        return result, f"{where}: guard mass {GUARD_MASS} unreachable under cap {MAX_PHOTON_NUMBER}"
    drift = abs(tighter.bell - result.bell)
    if drift > GUARD_TOL:
        if name_eta:
            where += f" eta={eta}"
        return result, f"{where}: bell moved {drift:.2e} between mass {spec.mass_threshold} and {GUARD_MASS}"
    return result, None


def cmd_sweep_settings(args: argparse.Namespace) -> int:
    lo, hi = args.L_range
    if args.N is not None:
        check_mass_threshold(args.mass)  # unused with --N, but echoed in config
    else:
        spec = SVSpec(args.gamma, args.mass)
        guard = _at_mass(spec, GUARD_MASS)
    rows = []
    warnings: list[str] = []
    for L in range(lo, hi + 1):
        if args.N is not None:
            res = bell_fixed_N(args.N, make_chain(L), args.eta)
        else:
            res, warning = _sv_bell_with_guard(make_chain(L), spec, guard, args.eta)
            if warning:
                warnings.append(warning)
        rows.append((L, res.lhs, res.rhs, res.bell))
    metadata: dict = {} if args.N is not None else {"mass": spec.mass, "n_max": spec.n_max}
    if warnings:
        metadata["convergence_warnings"] = warnings
    _emit(args, metadata, ("L", "lhs", "rhs", "bell"), rows)
    return 0


def cmd_sweep_eta(args: argparse.Namespace) -> int:
    chain = make_chain(args.L)
    rows = [(eta, bell_fixed_N(args.N, chain, eta).bell) for eta in _grid(*args.eta_range)]
    _emit(args, {}, ("eta", "bell"), rows)
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    # Reject too many cells, a bad efficiency, gain or mass anywhere in the
    # grid, and a mass that the largest gain cannot reach, before the first
    # cell.  Gains rise along the grid, so its two ends stand for every gain.
    gammas, etas = _grid(*args.gamma_range), _grid(*args.eta_range)
    if len(gammas) * len(etas) > MAX_GRID_POINTS:
        raise ValueError(f"grid has {len(gammas)} x {len(etas)} cells, more than {MAX_GRID_POINTS}")
    for eta in etas:
        check_efficiency(eta)
    chain = make_chain(args.L)
    SVSpec(gammas[0], args.mass)
    last = SVSpec(gammas[-1], args.mass)
    last.n_max  # raises CapExceededError if the largest gain falls short
    rows = []
    warnings: dict[str, None] = {}  # insertion-ordered, so a repeat is dropped in O(1)
    truncation: dict[str, list] = {}
    for gamma in gammas:
        # The row's two specs keep their two angles' lossless tables, so each
        # efficiency of the row only thins them; the guard's tables continue
        # the default-mass ones, and all of them go with the row.  The last
        # row reuses the pre-check's spec and the weights it summed.
        spec = last if gamma == last.gamma else SVSpec(gamma, args.mass)
        guard = _at_mass(spec, GUARD_MASS)
        truncation[repr(gamma)] = [spec.n_max, spec.mass]
        for eta in etas:
            res, warning = _sv_bell_with_guard(chain, spec, guard, eta, name_eta=True)
            if warning:  # an unreachable guard: once per gain
                warnings[warning] = None
            rows.append((gamma, eta, res.bell))
    metadata: dict = {"truncation": truncation}
    if warnings:
        metadata["convergence_warnings"] = list(warnings)
    _emit(args, metadata, ("gamma", "eta", "bell"), rows)
    return 0


def run_verification(oracle_max_N: int = 6, seed: int = 0, mc_samples: int = 10**10) -> dict:
    """Run the normalization, oracle-equivalence, LHV and loss suites.

    - normalization: the table mass is 1 within 1e-9 for N <= 12 at 20
      seeded angles, all angles stepped together;
    - oracle_equivalence: the tables equal the Fock oracle's within 1e-10 for
      N <= oracle_max_N at six fixed angles, and at three pairs of polarizer
      angles the oracle depends only on their difference; the oracle builds
      each N's nine angle pairs as one stack;
    - lhv_bound: the chained inequality's exact local minimum over every
      deterministic strategy is 0 at (L, cap) = (2, 3), (3, 2) and (4, 12);
    - loss_channel: Monte Carlo thinning of the N = 3 table at pi/8 lies
      within the L1 bound of the exact channel at efficiencies 0.5 and 0.83,
      and thinning twice equals thinning once at the product efficiency.

    Deterministic for a fixed seed; returns a report dict with one entry per
    suite and an overall flag.
    """
    if not 0 <= oracle_max_N <= MAX_ORACLE_PHOTON_NUMBER:
        raise ValueError(f"oracle_max_N must lie in [0, {MAX_ORACLE_PHOTON_NUMBER}], got {oracle_max_N}")
    if not 1 <= mc_samples <= MAX_MC_SAMPLES:
        raise ValueError(f"mc_samples must lie in [1, {MAX_MC_SAMPLES}], got {mc_samples}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    suites = []

    thetas = [float(t) for t in rng.uniform(0.0, _HALF_PI, size=20)]
    worst_mass = float(np.max(np.abs(_table_masses(12, thetas) - 1.0)))
    suites.append(
        {"name": "normalization", "passed": bool(worst_mass <= 1e-9), "worst_mass_error": worst_mass}
    )

    # One oracle stack per N: Alice at 0 against six grid angles, then three
    # angle pairs at which only the difference may matter; against the
    # cached tables the CLI serves.
    grid = [0.0, math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8, _HALF_PI]
    alice = [0.0] * len(grid) + [0.3, 0.2, math.pi / 16]
    bob = grid + [0.75, 1.5, 3 * math.pi / 16]
    worst = worst_rel = 0.0
    for n in range(oracle_max_N + 1):
        closed = np.stack([joint_distribution(n, b - a).probs for a, b in zip(alice, bob)])
        diff = np.abs(closed - oracle_joint_distribution(n, bob, alice))
        worst = max(worst, float(diff[: len(grid)].max()))
        worst_rel = max(worst_rel, float(diff[len(grid) :].max()))
    suites.append(
        {
            "name": "oracle_equivalence",
            "passed": bool(worst <= 1e-10 and worst_rel <= 1e-10),
            "worst_abs_diff": worst,
            "worst_invariance_diff": worst_rel,
        }
    )

    minima = [
        {"L": L, "cap": cap, "minimum": lhv_minimum(L, cap)} for L, cap in [(2, 3), (3, 2), (4, 12)]
    ]
    suites.append(
        {
            "name": "lhv_bound",
            "passed": all(m["minimum"] == 0.0 for m in minima),
            "minima": minima,
        }
    )

    # alpha is split over both efficiencies, so a correct channel fails the
    # suite with probability at most alpha at any sample count.
    dist = joint_distribution(3, math.pi / 8)
    efficiencies = (0.5, 0.83)
    alpha = 1e-3
    eps = l1_deviation_bound(dist.probs.size, mc_samples, alpha / len(efficiencies))
    worst_l1 = 0.0
    for eta in efficiencies:
        exact = binomial_thin(dist, eta)
        empirical = mc_thin(dist, eta, mc_samples, seed=seed + 1)
        worst_l1 = max(worst_l1, float(np.abs(empirical.probs - exact.probs).sum()))
    twice = binomial_thin(binomial_thin(dist, 0.9), 0.8)
    once = binomial_thin(dist, 0.72)
    semigroup = float(np.max(np.abs(twice.probs - once.probs)))
    suites.append(
        {
            "name": "loss_channel",
            "passed": bool(worst_l1 < eps and semigroup <= 1e-10),
            "alpha": alpha,
            "eps": eps,
            "worst_l1": worst_l1,
            "semigroup_diff": semigroup,
        }
    )

    return {
        "seed": seed,
        "oracle_max_N": oracle_max_N,
        "mc_samples": mc_samples,
        "passed": all(s["passed"] for s in suites),
        "suites": suites,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(args.oracle_max_N, args.seed, args.mc_samples)
    _write(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    for suite in report["suites"]:
        status = "pass" if suite["passed"] else "FAIL"
        print(f"{suite['name']}: {status}", file=sys.stderr)
    return 0 if report["passed"] else 1


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", metavar="PATH", default=None)


def _add_state_flags(sub: argparse.ArgumentParser) -> None:
    state = sub.add_mutually_exclusive_group(required=True)
    state.add_argument("--N", type=int, help="photons per beam (fixed component)")
    state.add_argument("--gamma", type=float, help="parametric gain (squeezed vacuum)")


def _add_truncation_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mass", type=float, default=0.99, help="truncation mass threshold")


@functools.cache  # built once per process: each add_argument asks for the terminal size
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svbell",
        description=(
            "Photon-number-resolved chained Bell tests on four-mode squeezed vacuum"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="joint photon-count distribution")
    _add_state_flags(dist)
    dist.add_argument("--theta", type=float, required=True, help="relative polarizer angle, radians")
    dist.add_argument("--eta", type=float, default=1.0, help="detection efficiency")
    _add_truncation_flags(dist)
    _add_output_flags(dist)
    dist.set_defaults(func=cmd_dist)

    sweep_l = sub.add_parser("sweep-settings", help="Bell parameter vs number of settings")
    _add_state_flags(sweep_l)
    sweep_l.add_argument("--eta", type=float, default=1.0)
    sweep_l.add_argument("--L-range", type=_parse_int_range, required=True, metavar="a:b")
    _add_truncation_flags(sweep_l)
    _add_output_flags(sweep_l)
    sweep_l.set_defaults(func=cmd_sweep_settings)

    sweep_e = sub.add_parser("sweep-eta", help="Bell parameter vs detection efficiency")
    sweep_e.add_argument("--N", type=int, required=True)
    sweep_e.add_argument("--L", type=int, required=True)
    sweep_e.add_argument("--eta-range", type=_parse_float_range, required=True, metavar="a:b:step")
    _add_output_flags(sweep_e)
    sweep_e.set_defaults(func=cmd_sweep_eta)

    heatmap = sub.add_parser("heatmap", help="Bell parameter over a gain x efficiency grid")
    heatmap.add_argument("--L", type=int, required=True)
    heatmap.add_argument("--gamma-range", type=_parse_float_range, required=True, metavar="a:b:step")
    heatmap.add_argument("--eta-range", type=_parse_float_range, required=True, metavar="a:b:step")
    _add_truncation_flags(heatmap)
    _add_output_flags(heatmap)
    heatmap.set_defaults(func=cmd_heatmap)

    verify = sub.add_parser("verify", help="run the verification suites")
    verify.add_argument("--oracle-max-N", type=int, default=6, dest="oracle_max_N")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--mc-samples", type=int, default=10**10, dest="mc_samples")
    verify.add_argument("--out", metavar="PATH", default=None)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    created = bool(args.out) and not os.path.exists(args.out)
    try:
        if args.out:
            # Opened for appending only, so an unwritable path exits 2 before
            # any computation and an existing file is untouched until the end.
            open(args.out, "a", encoding="utf-8").close()
        return args.func(args)
    except BaseException as exc:  # an interrupted run leaves no file either
        if created and os.path.exists(args.out):
            os.remove(args.out)
        if not isinstance(exc, (CapExceededError, ValueError, OSError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapExceededError) else 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
