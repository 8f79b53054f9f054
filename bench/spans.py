"""Spans around the public functions of each `gaudin` layer, and the per-layer metrics.

The library imports names directly (`from .sl2 import build_site_operator`),
so a wrapper is bound in place of the original in every `gaudin` module that
holds it, the package namespace included, and the originals are restored on
exit.  Private helpers (`_lowering_array`, `_annotate`, `_multiset_gap`, ...)
are not wrapped, so their time counts in their caller's self time.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("sl2", "hamiltonians", "singular", "rational_linalg", "eigenbasis", "bethe", "cli")

# every per-layer metric with its unit; run.py adds cli.bytes_out and trace.overhead_s
UNITS = {
    "sl2.enumerate_calls": "count",
    "sl2.operator_builds": "count",
    "sl2.self_s": "s",
    "hamiltonians.builds": "count",
    "hamiltonians.build_self_s": "s",
    "hamiltonians.verify_self_s": "s",
    "hamiltonians.commutators": "count",
    "rational_linalg.rref_calls": "count",
    "rational_linalg.rref_cells": "count",
    "rational_linalg.self_s": "s",
    "singular.gordan_self_s": "s",
    "singular.kernel_self_s": "s",
    "singular.vectors": "count",
    "eigenbasis.diagonalize_self_s": "s",
    "eigenbasis.joint_eig_s": "s",
    "eigenbasis.build_self_s": "s",
    "eigenbasis.max_residual": "ratio",
    "bethe.solve_self_s": "s",
    "bethe.starts": "count",
    "bethe.found": "count",
    "bethe.found_per_start": "ratio",
    "bethe.max_vector_residual": "ratio",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at an operation's top level
    op: int  # index of the operation in the workload
    note: dict | None = None


def _rref_note(arguments, result):
    rows = arguments["rows"]
    return {"cells": len(rows) * len(rows[0]) if rows else 0}


def _singular_note(arguments, result):
    return {"vectors": result.count}


def _eigenbasis_note(arguments, result):
    levels = result.levels if hasattr(result, "levels") else [result]
    return {"residual": max((v.residual for level in levels for v in level), default=0.0)}


def _bethe_note(arguments, result):
    weights, m = arguments["weights"], arguments["m"]
    starts = arguments.get("n_starts")
    if m < 2:
        starts = 0
    elif starts is None:
        starts = 200 * math.comb(m + len(weights) - 2, m)
    return {
        "starts": starts,
        "found": len(result),
        "vector_residual": max((s.vector_residual for s in result), default=0.0),
    }


# functions whose arguments or results feed a per-layer metric
_NOTES = {
    "rational_linalg.rref": _rref_note,
    "singular.singular_basis_gordan": _singular_note,
    "singular.singular_basis_kernel": _singular_note,
    "eigenbasis.build_eigenbasis": _eigenbasis_note,
    "eigenbasis.diagonalize_singular": _eigenbasis_note,
    "bethe.solve_bethe_numeric": _bethe_note,
}


class Tracer:
    """Records one span per call of a public layer function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(name)
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op))
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index].start, spans[index].end = start, end
            if note is not None:
                spans[index].note = note(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        import gaudin

        # keyed by id: module attributes need not be hashable; a cached
        # function (functools.lru_cache) is wrapped like a plain one
        wrappers = {}
        for layer in LAYERS:
            module = getattr(gaudin, layer)
            for attr, obj in vars(module).items():
                if (callable(obj) and not inspect.isclass(obj) and not attr.startswith("_")
                        and getattr(obj, "__module__", None) == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patched = []
        modules = [m for key, m in sys.modules.items() if key == "gaudin" or key.startswith("gaudin.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


# per-layer self time, split by the functions whose own code it runs in
_SELF_GROUPS = {
    "sl2.self_s": ("sl2.",),
    "hamiltonians.build_self_s": ("hamiltonians.build_hamiltonian", "hamiltonians.hamiltonian_array",
                                  "hamiltonians.hamiltonian_family"),
    "hamiltonians.verify_self_s": ("hamiltonians.verify_family", "hamiltonians.commutator"),
    "rational_linalg.self_s": ("rational_linalg.",),
    "singular.gordan_self_s": ("singular.singular_basis_gordan", "singular.apply_P",
                               "singular.gordan_coefficients", "singular.pochhammer", "singular.compositions"),
    "singular.kernel_self_s": ("singular.singular_basis_kernel",),
    "eigenbasis.diagonalize_self_s": ("eigenbasis.diagonalize_singular",),
    "eigenbasis.build_self_s": ("eigenbasis.build_eigenbasis",),
    "bethe.solve_self_s": ("bethe.solve_bethe", "bethe.solve_bethe_numeric"),
    "cli.self_s": ("cli.",),
}

# calls counted per metric
_COUNTS = {
    "sl2.enumerate_calls": ("sl2.enumerate_weight_space",),
    "sl2.operator_builds": ("sl2.build_site_operator", "sl2.build_total_generator"),
    "hamiltonians.builds": ("hamiltonians.build_hamiltonian", "hamiltonians.hamiltonian_array"),
    "hamiltonians.commutators": ("hamiltonians.commutator",),
    "rational_linalg.rref_calls": ("rational_linalg.rref",),
}


def _matches(name, patterns):
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (cli.bytes_out comes from the outputs)."""
    own = self_times(spans)
    out = {}
    for metric, patterns in _SELF_GROUPS.items():
        out[metric] = sum(t for s, t in zip(spans, own) if _matches(s.name, patterns))
    for metric, patterns in _COUNTS.items():
        out[metric] = sum(1 for s in spans if _matches(s.name, patterns))

    def notes(*names):
        return [s.note for s in spans if s.name in names and s.note is not None]

    out["rational_linalg.rref_cells"] = sum(n["cells"] for n in notes("rational_linalg.rref"))
    out["singular.vectors"] = sum(
        n["vectors"] for n in notes("singular.singular_basis_gordan", "singular.singular_basis_kernel"))
    out["eigenbasis.joint_eig_s"] = sum(
        s.end - s.start for s in spans if s.name == "eigenbasis.simultaneous_eigenvectors")
    out["eigenbasis.max_residual"] = max(
        (n["residual"] for n in notes("eigenbasis.build_eigenbasis", "eigenbasis.diagonalize_singular")),
        default=0.0)
    bethe = notes("bethe.solve_bethe_numeric")
    starts = sum(n["starts"] for n in bethe)
    out["bethe.starts"] = starts
    out["bethe.found"] = sum(n["found"] for n in bethe)
    found_newton = sum(n["found"] for n in bethe if n["starts"])
    out["bethe.found_per_start"] = found_newton / starts if starts else 0.0
    out["bethe.max_vector_residual"] = max((n["vector_residual"] for n in bethe), default=0.0)
    return out
