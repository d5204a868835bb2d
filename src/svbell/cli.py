"""Command-line front end: count tables, Bell sweeps, verification suites.

CSV is the canonical output (fixed headers, UTF-8, '.' decimal separator,
rows ordered lexicographically in the sweep variables); JSON mirrors it.
Every output embeds its fully resolved configuration and truncation mass,
so any figure can be regenerated from its own data file.

Exit codes: 0 ok, 1 verification failure, 2 invalid arguments,
3 numerical/cap failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .chain import bell_fixed_N, bell_sv, make_chain
from .errors import CapExceededError
from .lhv import lhv_minimum, polygon_check_batch
from .loss import binomial_thin
from .oracle import MAX_ORACLE_PHOTON_NUMBER, mc_thin, oracle_joint_distribution
from .singlet import MAX_PHOTON_NUMBER, joint_distribution
from .sv import SVSpec, sv_mixture, truncated_mass

_HALF_PI = 0.5 * math.pi

# Figure-pipeline convergence guard: squeezed-vacuum sweeps are repeated at
# this mass threshold and flagged when the Bell parameter moves too much.
GUARD_MASS = 0.999
GUARD_TOL = 1e-3


def _parse_int_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:b with integers, got {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _parse_float_range(text: str) -> tuple[float, float, float]:
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:b:step, got {text!r}")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return lo, hi, step


def _grid(lo: float, hi: float, step: float) -> list[float]:
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(
    out: Optional[str],
    fmt: str,
    config: dict,
    metadata: dict,
    columns: Sequence[str],
    rows: list[tuple],
) -> None:
    rows = [tuple(v.item() if isinstance(v, np.generic) else v for v in row) for row in rows]
    if fmt == "json":
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
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _config_dict(args: argparse.Namespace, keys: Sequence[str]) -> dict:
    config = {"command": args.command}
    for key in keys:
        config[key] = getattr(args, key.replace("-", "_"))
    return config


def _require_one_state(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if (args.N is None) == (args.gamma is None):
        parser.error("exactly one of --N (fixed component) or --gamma (squeezed vacuum) is required")


def cmd_dist(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _require_one_state(parser, args)
    config = _config_dict(args, ["N", "gamma", "theta", "eta", "mass", "cap"])
    if args.N is not None:
        dist = binomial_thin(joint_distribution(args.N, args.theta), args.eta)
        metadata = {"mass": dist.mass}
    else:
        spec = SVSpec(gamma=args.gamma, mass_threshold=args.mass, n_max_cap=args.cap)
        dist = sv_mixture(args.theta, spec, args.eta)
        metadata = {"mass": dist.mass, "n_max": dist.max_count}
    rows = [
        (n, m, float(dist.probs[n, m]))
        for n in range(dist.max_count + 1)
        for m in range(dist.max_count + 1)
    ]
    _emit(args.out, args.format, config, metadata, ("n", "m", "p"), rows)
    return 0


def _sv_bell_with_guard(
    L: int, gamma: float, mass: float, cap: int, eta: float
) -> tuple[object, float, Optional[str]]:
    chain = make_chain(L)
    spec = SVSpec(gamma=gamma, mass_threshold=mass, n_max_cap=cap)
    result = bell_sv(chain, spec, eta)
    covered = truncated_mass(spec)
    if mass >= GUARD_MASS:
        return result, covered, None
    try:
        tighter = bell_sv(chain, SVSpec(gamma=gamma, mass_threshold=GUARD_MASS, n_max_cap=cap), eta)
    except CapExceededError:
        return result, covered, f"L={L} gamma={gamma}: guard mass {GUARD_MASS} unreachable under cap {cap}"
    drift = abs(tighter.bell - result.bell)
    if drift > GUARD_TOL:
        return result, covered, f"L={L} gamma={gamma}: bell moved {drift:.2e} between mass {mass} and {GUARD_MASS}"
    return result, covered, None


def cmd_sweep_settings(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _require_one_state(parser, args)
    lo, hi = args.L_range
    config = _config_dict(args, ["N", "gamma", "eta", "mass", "cap"])
    config["L_range"] = [lo, hi]
    rows = []
    warnings: list[str] = []
    metadata: dict = {}
    for L in range(lo, hi + 1):
        if args.N is not None:
            res = bell_fixed_N(args.N, make_chain(L), args.eta)
        else:
            res, covered, warning = _sv_bell_with_guard(L, args.gamma, args.mass, args.cap, args.eta)
            if warning:
                warnings.append(warning)
            metadata["mass"] = covered
            metadata["n_max"] = res.n_max
        rows.append((L, res.lhs, res.rhs, res.bell))
    if warnings:
        metadata["convergence_warnings"] = warnings
    _emit(args.out, args.format, config, metadata, ("L", "lhs", "rhs", "bell"), rows)
    return 0


def cmd_sweep_eta(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    lo, hi, step = args.eta_range
    config = _config_dict(args, ["N", "L"])
    config["eta_range"] = [lo, hi, step]
    chain = make_chain(args.L)
    rows = []
    for eta in _grid(lo, hi, step):
        res = bell_fixed_N(args.N, chain, eta)
        rows.append((eta, res.bell))
    _emit(args.out, args.format, config, {}, ("eta", "bell"), rows)
    return 0


def cmd_heatmap(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    g_lo, g_hi, g_step = args.gamma_range
    e_lo, e_hi, e_step = args.eta_range
    config = _config_dict(args, ["L", "mass", "cap"])
    config["gamma_range"] = [g_lo, g_hi, g_step]
    config["eta_range"] = [e_lo, e_hi, e_step]
    rows = []
    warnings: list[str] = []
    truncation: dict[str, list] = {}
    for gamma in _grid(g_lo, g_hi, g_step):
        for eta in _grid(e_lo, e_hi, e_step):
            res, covered, warning = _sv_bell_with_guard(args.L, gamma, args.mass, args.cap, eta)
            if warning:
                warnings.append(warning)
            truncation[repr(gamma)] = [res.n_max, covered]
            rows.append((gamma, eta, res.bell))
    metadata: dict = {"truncation": truncation}
    if warnings:
        metadata["convergence_warnings"] = warnings
    _emit(args.out, args.format, config, metadata, ("gamma", "eta", "bell"), rows)
    return 0


def run_verification(oracle_max_N: int = 6, seed: int = 0, mc_samples: int = 200_000) -> dict:
    """Run the oracle-equivalence, LHV, normalization and loss suites.

    Deterministic for a fixed seed; returns a report dict with one entry per
    suite and an overall flag.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    suites = []

    thetas = rng.uniform(0.0, _HALF_PI, size=20)
    worst_mass = max(
        abs(joint_distribution(n, float(t)).mass - 1.0) for n in range(13) for t in thetas
    )
    suites.append(
        {"name": "normalization", "passed": bool(worst_mass <= 1e-9), "worst_mass_error": worst_mass}
    )

    angle_grid = [0.0, math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8, _HALF_PI]
    worst = 0.0
    for n in range(oracle_max_N + 1):
        for theta in angle_grid:
            diff = np.abs(
                joint_distribution(n, theta).probs - oracle_joint_distribution(n, theta)
            )
            worst = max(worst, float(diff.max()))
    worst_rel = 0.0
    for n in range(min(oracle_max_N, 6) + 1):
        for theta_a, theta_b in [(0.3, 0.75), (0.2, 1.5), (math.pi / 16, 3 * math.pi / 16)]:
            diff = np.abs(
                oracle_joint_distribution(n, theta_b, theta_a)
                - joint_distribution(n, theta_b - theta_a).probs
            )
            worst_rel = max(worst_rel, float(diff.max()))
    suites.append(
        {
            "name": "oracle_equivalence",
            "passed": bool(worst <= 1e-10 and worst_rel <= 1e-10),
            "worst_abs_diff": worst,
            "worst_invariance_diff": worst_rel,
        }
    )

    minima = [lhv_minimum(2, 3), lhv_minimum(3, 2)]
    alice = rng.integers(0, 13, size=(100_000, 4))
    bob = rng.integers(0, 13, size=(100_000, 4))
    random_min = float(polygon_check_batch(alice, bob).min())
    suites.append(
        {
            "name": "lhv_bound",
            "passed": bool(all(m == 0.0 for m in minima) and random_min >= 0.0),
            "exhaustive_minima": minima,
            "random_minimum": random_min,
        }
    )

    dist = joint_distribution(3, math.pi / 8)
    efficiencies = (0.5, 0.83)
    worst_sigma = 0.0
    for eta in efficiencies:
        exact = binomial_thin(dist, eta)
        empirical = mc_thin(dist, eta, mc_samples, seed=seed + 1)
        sigma = np.sqrt(np.maximum(exact.probs * (1.0 - exact.probs), 1e-300) / mc_samples)
        worst_sigma = max(worst_sigma, float(np.max(np.abs(empirical.probs - exact.probs) / sigma)))
    # Bonferroni threshold over every cell of both tables: a correct channel
    # fails the whole suite, not each cell, with probability about 1e-3.
    cells = len(efficiencies) * dist.probs.size
    sigma_threshold = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * cells))
    twice = binomial_thin(binomial_thin(dist, 0.9), 0.8)
    once = binomial_thin(dist, 0.72)
    semigroup = float(np.max(np.abs(twice.probs - once.probs)))
    suites.append(
        {
            "name": "loss_channel",
            "passed": bool(worst_sigma <= sigma_threshold and semigroup <= 1e-10),
            "worst_sigma": worst_sigma,
            "sigma_threshold": sigma_threshold,
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


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if not 0 <= args.oracle_max_N <= MAX_ORACLE_PHOTON_NUMBER:
        parser.error(
            f"--oracle-max-N must lie in [0, {MAX_ORACLE_PHOTON_NUMBER}], got {args.oracle_max_N}"
        )
    if args.mc_samples < 1:
        parser.error(f"--mc-samples must be positive, got {args.mc_samples}")
    report = run_verification(args.oracle_max_N, args.seed, args.mc_samples)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    for suite in report["suites"]:
        status = "pass" if suite["passed"] else "FAIL"
        print(f"{suite['name']}: {status}", file=sys.stderr)
    return 0 if report["passed"] else 1


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", metavar="PATH", default=None)


def _add_truncation_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mass", type=float, default=0.99, help="truncation mass threshold")
    sub.add_argument("--cap", type=int, default=MAX_PHOTON_NUMBER, help="photon-number cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svbell",
        description=(
            "Photon-number-resolved chained Bell tests on four-mode squeezed vacuum"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="joint photon-count distribution")
    dist.add_argument("--N", type=int, default=None, help="photons per beam (fixed component)")
    dist.add_argument("--gamma", type=float, default=None, help="parametric gain (squeezed vacuum)")
    dist.add_argument("--theta", type=float, required=True, help="relative polarizer angle, radians")
    dist.add_argument("--eta", type=float, default=1.0, help="detection efficiency")
    _add_truncation_flags(dist)
    _add_output_flags(dist)
    dist.set_defaults(func=cmd_dist)

    sweep_l = sub.add_parser("sweep-settings", help="Bell parameter vs number of settings")
    sweep_l.add_argument("--N", type=int, default=None)
    sweep_l.add_argument("--gamma", type=float, default=None)
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
    verify.add_argument("--mc-samples", type=int, default=200_000, dest="mc_samples")
    verify.add_argument("--out", metavar="PATH", default=None)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
