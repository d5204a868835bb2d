"""One fresh interpreter of the benchmark: import svbell, run the commands cold, then warm.

    python3 child.py SRC_DIR TRACE < commands.json

Prints ``ready`` as soon as ``svbell.cli`` is imported, so the parent can
time interpreter start-up plus import.  Then it reads the command lines from
stdin, runs them through ``svbell.cli.main`` (cold: the ``_joint_probs``
cache starts empty), runs the same list again in the same process (warm) and
prints one JSON line with both passes' exit codes, outputs and times.
"""

import math
import os
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed pure-Python workload: the machine's speed right now.

    Half integer arithmetic, half log-domain float sums in the style of the
    singlet kernel, so that it slows under contention roughly as svbell does.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    for n in range(1_200):
        terms = [math.lgamma(k + 1.0) - 0.5 * math.log(n + k + 1.0) for k in range(8)]
        top = max(terms)
        math.fsum(math.exp(t - top) for t in terms)
    return time.perf_counter() - start


def _run_pass(cli, commands: list[list[str]]) -> dict:
    import contextlib
    import io
    import traceback

    results = []
    calibration = [calibrate()]
    start = time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = -1
        seconds = time.perf_counter() - began
        results.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "seconds": seconds})
        calibration.append(calibrate())
    return {"seconds": time.perf_counter() - start, "results": results, "calibration": calibration}


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    src, traced = os.path.realpath(sys.argv[1]), sys.argv[2] == "1"
    sys.path.insert(0, src)
    import svbell.cli

    print("ready", flush=True)
    if traced:  # ends the import part of the -X importtime report
        print("perfbench: imported", file=sys.stderr, flush=True)
    if not os.path.realpath(svbell.cli.__file__).startswith(src + os.sep):
        print(f"perfbench: svbell was imported from {svbell.cli.__file__}, not {src}", file=sys.stderr)
        return 3

    import json
    import resource

    commands = json.load(sys.stdin)
    # The machine's speed right after set-up, to scale the set-up time.
    report = {"env": _environment(), "trace": None, "calibration": [calibrate() for _ in range(5)]}
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            cold = _run_pass(svbell.cli, commands)
            report["trace"] = tracer.metrics()
            warm = _run_pass(svbell.cli, commands)
    else:
        cold = _run_pass(svbell.cli, commands)
        warm = _run_pass(svbell.cli, commands)
    report["passes"] = [cold, warm]
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
