"""Spans around the calls between svbell's modules, for the traced run.

Each public function is wrapped at the name its caller imported, such as
``svbell.chain.joint_distribution`` or ``svbell.cli.bell_sv``, so a call is
recorded where it crosses from one module into another.  A span holds its
layer, start, end and parent; a layer's self time is its spans' time minus
the time of their child spans.  ``numerics`` is called only from inside
``singlet`` and is counted in singlet's time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Iterator

# (module that imported the name, name, layer of the function behind it)
TARGETS = (
    ("svbell.cli", "main", "cli"),
    ("svbell.chain", "joint_distribution", "singlet"),
    ("svbell.sv", "joint_distribution", "singlet"),
    ("svbell.cli", "joint_distribution", "singlet"),
    ("svbell.chain", "binomial_thin", "loss"),
    ("svbell.sv", "binomial_thin", "loss"),
    ("svbell.cli", "binomial_thin", "loss"),
    ("svbell.chain", "n_max_for", "sv"),
    ("svbell.chain", "lambda_sq", "sv"),
    ("svbell.cli", "sv_mixture", "sv"),
    ("svbell.cli", "truncated_mass", "sv"),
    ("svbell.cli", "bell_sv", "chain"),
    ("svbell.cli", "bell_fixed_N", "chain"),
    ("svbell.cli", "oracle_joint_distribution", "oracle"),
    ("svbell.cli", "mc_thin", "oracle"),
    ("svbell.cli", "lhv_minimum", "lhv"),
    ("svbell.cli", "polygon_check_batch", "lhv"),
)

LAYERS = ("cli", "chain", "sv", "singlet", "loss", "oracle", "lhv")

# Functions whose arguments or result feed a work counter.
_COUNTED = {
    "joint_distribution", "binomial_thin", "n_max_for", "sv_mixture",
    "bell_sv", "oracle_joint_distribution", "mc_thin", "lhv_minimum",
    "polygon_check_batch",
}


class Tracer:
    """In-memory spans and work counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self._open: list[int] = []
        self.tables: set[tuple[int, float]] = set()
        self.counts = dict.fromkeys(
            ("singlet.max_N", "loss.cells", "loss.computed_flops", "sv.n_max_max",
             "chain.bell_sv_calls", "chain.components", "oracle.tables",
             "oracle.mc_samples", "lhv.strategies"),
            0,
        )

    def _count(self, name: str, args: dict, result) -> None:
        c = self.counts
        if name == "joint_distribution":
            self.tables.add((args["N"], args["theta"]))
            c["singlet.max_N"] = max(c["singlet.max_N"], args["N"])
        elif name == "binomial_thin":
            size = args["dist"].max_count + 1
            c["loss.cells"] += size * size
            c["loss.computed_flops"] += 4 * size**3  # two size^3 multiply-adds
        elif name == "n_max_for":
            c["sv.n_max_max"] = max(c["sv.n_max_max"], result)
        elif name == "sv_mixture":
            c["sv.n_max_max"] = max(c["sv.n_max_max"], result.max_count)
        elif name == "bell_sv":
            c["chain.bell_sv_calls"] += 1
            c["chain.components"] += result.n_max + 1
        elif name == "oracle_joint_distribution":
            c["oracle.tables"] += 1
        elif name == "mc_thin":
            c["oracle.mc_samples"] += args["samples"]
        elif name == "lhv_minimum":
            c["lhv.strategies"] += (args["cap"] + 1) ** (2 * args["L"])
        elif name == "polygon_check_batch":
            c["lhv.strategies"] += len(args["alice"])

    def _wrap(self, fn, name: str, layer: str):
        params = list(inspect.signature(fn).parameters)
        counted = name in _COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [layer, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counted:
                self._count(name, {**dict(zip(params, args)), **kwargs}, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target that exists; restore the originals on exit."""
        originals = []
        try:
            for module_name, name, layer in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                originals.append((module, name, fn))
                setattr(module, name, self._wrap(fn, name, layer))
            yield self
        finally:
            for module, name, fn in reversed(originals):
                setattr(module, name, fn)

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self times and work counters so far."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (layer, start, end, _), children in zip(self.spans, child_time):
            calls[layer] += 1
            self_s[layer] += end - start - children
        out = dict(self.counts)
        out["singlet.tables"] = len(self.tables)
        out["cli.commands"] = calls["cli"]
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            # Self time in every layer; cli and chain say so in the name
            # because most of their spans' time belongs to other layers.
            time_name = "self_s" if layer in ("cli", "chain") else "time_s"
            out[f"{layer}.{time_name}"] = self_s[layer]
        return out
