"""Benchmark of svbell's command line, checked against an exact reference.

    python3 perfbench/run.py --workload settings_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client drives ``svbell.cli.main`` in a
closed loop over a seeded command list (see workloads.py).  Each repetition
starts a fresh interpreter, so the ``_joint_probs`` cache starts cold as it
does for a command-line user; after the cold pass the same list runs again
in that process (warm).  BLAS is pinned to one thread in that interpreter.
Every output is checked against the closed form in reference.py.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from reference import CheckFailure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# The single-threaded baseline: one BLAS thread in the measured interpreter.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CACHE_CONVENTION = (
    "run_s: fresh interpreter per repetition, so the _joint_probs cache starts empty; "
    "warm_run_s: the same commands again in that interpreter"
)
# Times are reported in reference-speed seconds.  The machines this runs on
# change speed by tens of percent within seconds, because other tenants share
# their cores, so each command's wall time is scaled by
# REFERENCE_CALIBRATION_S over the time of a fixed pure-Python loop
# (child.calibrate) run just before and just after it.  The constant only
# sets the scale: it is the loop's time on an idle 2.1 GHz Xeon vCPU.
REFERENCE_CALIBRATION_S = 0.012
CHILD_TIMEOUT_S = 150
MIN_REPETITIONS = 3
MIN_TRACED_PAIRS = 2
MIN_SETUPS = 7
IMPORT_GROUPS = ("svbell", "numpy", "scipy")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Sample:
    """One fresh interpreter: set-up time, both passes, and what it reported."""

    setup_s: float  # wall time
    setup_speed: float  # reference-speed seconds per wall second, right after set-up
    cold: dict
    warm: dict
    peak_rss_kb: int
    env: dict
    trace: dict | None
    imports_s: dict[str, float] | None


def _parse_importtime(lines: list[str]) -> dict[str, float]:
    """Self import time per top-level package, from a -X importtime report."""
    groups = dict.fromkeys(IMPORT_GROUPS + ("other",), 0.0)
    for line in lines:
        if line.startswith("perfbench: imported"):
            break
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _cumulative, name = line[len("import time:") :].split("|")
        top = name.strip().split(".")[0]
        groups[top if top in groups else "other"] += int(self_us) * 1e-6
    return groups


def spawn(commands: list[list[str]], traced: bool) -> Sample:
    """Start a fresh interpreter, time its set-up, and run the commands in it."""
    argv = [sys.executable, *(["-X", "importtime"] if traced else []), str(CHILD), str(SRC), str(int(traced))]
    env = {**os.environ, **PINNED_THREADS}
    stderr_lines: list[str] = []
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if traced else None, text=True, env=env, cwd=ROOT,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    # The import report can exceed a pipe buffer, so drain it while waiting.
    reader = threading.Thread(target=lambda: stderr_lines.extend(proc.stderr), daemon=True) if traced else None
    try:
        if reader:
            reader.start()
        proc.stdin.write(json.dumps(commands))
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        payload = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if reader:
            reader.join()
    if reader:
        sys.stderr.writelines(line for line in stderr_lines if not line.startswith(("import time:", "perfbench: imported")))
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"benchmark interpreter failed with exit code {proc.returncode}")
    report = json.loads(payload)
    cold, warm = report["passes"]
    imports = _parse_importtime(stderr_lines) if traced else None
    return Sample(
        setup_s, speed(report["calibration"]), cold, warm, report["peak_rss_kb"], report["env"], report["trace"], imports
    )


def speed(calibrations: list[float]) -> float:
    """Reference-speed seconds per wall second, from calibration loop times."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibrations)


def pass_seconds(passed: dict) -> float:
    """Reference-speed time of one pass: each command scaled by the calibrations around it."""
    cal = passed["calibration"]
    return sum(r["seconds"] * speed(cal[i : i + 2]) for i, r in enumerate(passed["results"]))


def digest(passed: dict) -> str:
    """sha256 over one pass's exit codes and output bytes."""
    h = hashlib.sha256()
    for result in passed["results"]:
        h.update(f"{result['rc']}\n".encode())
        h.update(result["out"].encode())
    return h.hexdigest()


class Checker:
    """Checks every command execution; remembers verdicts per distinct output."""

    def __init__(self, commands: list[workloads.Command]) -> None:
        self.commands = commands
        self.verdicts: dict[tuple[int, str], str | float] = {}
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.max_abs_err = 0.0

    def _verdict(self, index: int, out: str) -> str | float:
        key = (index, out)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self.commands[index].check(out)
            except (CheckFailure, ValueError, KeyError, IndexError) as exc:
                self.verdicts[key] = f"{type(exc).__name__}: {exc}"
        return self.verdicts[key]

    def add(self, sample: Sample) -> None:
        for index, (cold, warm) in enumerate(zip(sample.cold["results"], sample.warm["results"])):
            argv = " ".join(self.commands[index].argv)
            for label, result in (("cold", cold), ("warm", warm)):
                self.attempted += 1
                if result["rc"] != 0:
                    self.failed += 1
                    print(f"failed ({label}, exit {result['rc']}): {argv}: {result['err'].strip()[-300:]}", file=sys.stderr)
                    continue
                verdict = self._verdict(index, result["out"])
                if isinstance(verdict, str):
                    self.failed += 1
                    self.incorrect.append(f"{label}: {argv}: {verdict}")
                else:
                    self.max_abs_err = max(self.max_abs_err, verdict)


def _describe(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(
    commands: list[workloads.Command], seconds: float, traced: bool
) -> tuple[list[Sample], list[Sample], list[float]]:
    """Repeat fresh interpreters for ``seconds``; return (untraced, traced, reference-speed setup times)."""
    argvs = [list(c.argv) for c in commands]
    spawn([], traced=False)  # fills the page cache and svbell's bytecode cache; not timed
    plain: list[Sample] = []
    traced_samples: list[Sample] = []
    deadline = time.monotonic() + seconds
    while True:
        begin = time.monotonic()
        plain.append(spawn(argvs, traced=False))
        if traced:
            traced_samples.append(spawn(argvs, traced=True))
        took = time.monotonic() - begin
        enough = len(traced_samples) >= MIN_TRACED_PAIRS if traced else len(plain) >= MIN_REPETITIONS
        if enough and time.monotonic() + took > deadline:
            break
    setups = list(plain)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn([], traced=False))
    return plain, traced_samples, [s.setup_s * s.setup_speed for s in setups]


def benchmark(workload: str, seed: int, commands: list[workloads.Command], seconds: float, traced: bool) -> dict:
    """Measure, check and report one workload; return the result object."""
    plain, traced_samples, setups = measure(commands, seconds, traced)
    checker = Checker(commands)
    for sample in plain + traced_samples:
        checker.add(sample)
    digests = {digest(s.cold) for s in plain + traced_samples} | {digest(s.warm) for s in plain + traced_samples}
    if len(digests) != 1:
        checker.incorrect.append(f"outputs differ between repetitions or traced and untraced runs: {sorted(digests)}")
    failed_ratio = checker.failed / checker.attempted

    env = {
        **plain[0].env, "git_commit": _git_commit(), "workload": workload, "seed": seed,
        "commands": len(commands), "cache_state": CACHE_CONVENTION,
        "output_sha256": next(iter(digests)) if len(digests) == 1 else None,
    }
    print("env: " + json.dumps(env, sort_keys=True))
    print(
        f"raw wall-clock medians: setup {statistics.median(s.setup_s for s in plain)!r} s, "
        f"run {statistics.median(s.cold['seconds'] for s in plain)!r} s, "
        f"warm run {statistics.median(s.warm['seconds'] for s in plain)!r} s; "
        f"speed factor {statistics.median(speed(s.cold['calibration']) for s in plain)!r}"
    )
    if traced:
        values = per_layer(plain, traced_samples)
        values["check.max_abs_err"] = (checker.max_abs_err, None)
        values["check.failed_ratio"] = (failed_ratio, None)
    else:
        cold = [pass_seconds(s.cold) for s in plain]
        warm = [pass_seconds(s.warm) for s in plain]
        rss = [s.peak_rss_kb / 1024 for s in plain]
        values = {
            "setup_s": (statistics.median(setups), setups),
            "run_s": (statistics.median(cold), cold),
            "warm_run_s": (statistics.median(warm), warm),
            "peak_rss_mb": (statistics.median(rss), rss),
        }
    print(f"failed_ratio: {failed_ratio!r} ratio ({checker.failed} of {checker.attempted} command runs)")
    print(f"max_abs_err: {checker.max_abs_err!r} 1 (worst |B - exact|, or worst verify suite error)")
    for problem in dict.fromkeys(checker.incorrect):
        print(f"INCORRECT: {problem}")
    print(f"correct: {not checker.incorrect}")
    return {
        "correct": not checker.incorrect,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "values": values,
    }


def per_layer(plain: list[Sample], traced_samples: list[Sample]) -> dict:
    """Per-layer metrics from the traced repetitions."""
    values: dict[str, tuple] = {}
    first = traced_samples[0].trace
    for name in first:
        if name.endswith("_s"):
            samples = [s.trace[name] * speed(s.cold["calibration"]) for s in traced_samples]
            values[name] = (statistics.median(samples), samples)
        else:  # counts repeat exactly
            values[name] = (first[name], None)
    bytes_out = [sum(len(r["out"].encode()) for r in s.cold["results"]) for s in traced_samples]
    values["cli.bytes_out"] = (bytes_out[0], None)
    traced_cold = [pass_seconds(s.cold) for s in traced_samples]
    plain_cold = [pass_seconds(s.cold) for s in plain]
    values["trace.overhead_s"] = (statistics.median(traced_cold) - statistics.median(plain_cold), None)
    for group in IMPORT_GROUPS + ("other",):
        samples = [s.imports_s[group] * s.setup_speed for s in traced_samples]
        values[f"setup.{group}_s"] = (statistics.median(samples), samples)
    outside = [(s.setup_s - sum(s.imports_s.values())) * s.setup_speed for s in traced_samples]
    values["setup.interpreter_s"] = (statistics.median(outside), outside)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "svbell" / "cli.py").is_file():
            raise BenchError(f"no svbell sources under {SRC}")
        commands = workloads.WORKLOADS[args.workload](args.seed)
        result = benchmark(args.workload, args.seed, commands, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    specs = declared["per_layer" if args.trace else "end_to_end"]
    values = result.pop("values")
    missing = {spec["name"] for spec in specs} - set(values)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    for spec in specs:
        value, samples = values[spec["name"]]
        detail = f"  ({_describe(samples)})" if samples and len(samples) > 1 else ""
        print(f"{spec['name']}: {value!r} {spec['unit']}{detail}")
    result["metrics"] = {spec["name"]: {"value": values[spec["name"]][0], "unit": spec["unit"]} for spec in specs}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
