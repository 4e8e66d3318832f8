"""Opt-in spans around polytorus layer calls, recorded from outside the package.

``Tracer.install()`` rebinds the names that caller modules look up (``solve``
as bound in ``polytorus.measures`` and ``polytorus.nested``,
``eval_dirichlet`` as bound in ``averages``, ``measures`` and ``nested``, the
CLI's imports, ...) to timing wrappers, and restores them on exit.  No file
under ``src/`` is edited, and an untraced run executes the original code.

Spans are ``(id, parent, name, start, end, run, attrs)`` tuples kept in
memory; ``attrs`` holds the counts measured at the same boundary (candidates
scanned by a solve, terms times points of an evaluation, atoms coded).
"""

from __future__ import annotations

import importlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np


def _solve_attrs(args, kwargs, result):
    problem = args[0]
    return {"k": problem.k, "e": round(-math.log2(problem.eps)),
            "steps": result.steps}


def _eval_attrs(args, kwargs, result):
    f, _sigma, t = args[:3]
    return {"term_evals": int(np.size(t)) * len(f)}


def _lebesgue_attrs(args, kwargs, result):
    return {"terms": len(args[0])}


def result_atoms(args, kwargs, result):
    return {"atoms": len(result)}


def argument_atoms(args, kwargs, result):
    return {"atoms": len(args[0])}


def _nested_attrs(args, kwargs, result):
    lam, plan = result
    windows = rounds = 0
    for k, grid in enumerate(plan.window_boundaries, start=1):
        at_level = lam.level == k
        window = np.searchsorted(grid, lam.t[at_level]) - 1
        reps = lam.rep[at_level]
        for index in range(len(grid) - 1):
            rounds += int(reps[window == index].max())
        windows += len(grid) - 1
    return {"atoms": len(lam), "windows": windows, "rounds": rounds}


# (module, attribute, span name, counter)
WRAPPED = (
    ("polytorus.measures", "solve", "kronecker.solve", _solve_attrs),
    ("polytorus.nested", "solve", "kronecker.solve", _solve_attrs),
    ("polytorus.averages", "eval_dirichlet", "polynomials.eval_dirichlet", _eval_attrs),
    ("polytorus.measures", "eval_dirichlet", "polynomials.eval_dirichlet", _eval_attrs),
    ("polytorus.nested", "eval_dirichlet", "polynomials.eval_dirichlet", _eval_attrs),
    ("polytorus.averages", "lebesgue_line_mean", "polynomials.lebesgue_line_mean",
     _lebesgue_attrs),
    ("polytorus.cli", "build_point_mass_lambda", "measures.build", result_atoms),
    ("polytorus.cli", "build_nested_lambda", "nested.build", _nested_attrs),
    ("polytorus.cli", "atoms_to_bytes", "measures.encode", argument_atoms),
    ("polytorus.cli", "load_atoms", "measures.decode", result_atoms),
    ("polytorus.cli", "convergence_sweep", "averages.convergence_sweep", None),
    ("polytorus.cli", "recover_moments", "averages.recover_moments", None),
    ("polytorus.cli", "boundary_mean_error_bound", "averages.boundary_bound", None),
    ("polytorus.cli", "dirichlet_from_json", "formats.parse", None),
    ("polytorus.cli", "point_mass_from_json", "formats.parse", None),
    ("polytorus.cli", "measure_sequence_from_json", "formats.parse", None),
    ("polytorus.cli", "polynomial_family_from_json", "formats.parse", None),
)


class Tracer:
    """Span recorder; inactive (every call passes straight through) by default."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = False
        self.run = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` inside a span when active; ``attrs`` maps the result to counts."""
        if not self.active:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # reserve the id; filled in below
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end, self.run, {})
        if attrs is not None:
            self.spans[span_id][6].update(attrs(args, kwargs, result))
        return result

    @contextmanager
    def install(self):
        """Activate and rebind every name in ``WRAPPED``; restore on exit."""
        originals = []
        try:
            for module_name, attribute, name, attrs in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attribute)
                originals.append((module, attribute, fn))
                setattr(module, attribute, self._wrapper(name, fn, attrs))
            self.active = True
            yield self
        finally:
            self.active = False
            for module, attribute, fn in reversed(originals):
                setattr(module, attribute, fn)

    def _wrapper(self, name, fn, attrs):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, run, attrs in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "run": run, **attrs,
                }) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for span_id, parent, _name, start, end, _run, _attrs in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
