"""Span tracer that wraps causalqca's public functions from outside the package.

:meth:`Tracer.install` replaces each target function with a timing wrapper in
every loaded ``causalqca`` module that holds a reference to it, so calls made
inside the package (``evolve`` -> ``step``, ``solve_gates`` ->
``least_squares``) are seen as well as calls from the benchmark.
:meth:`Tracer.uninstall` puts the originals back; nothing under ``src/`` is
edited.

Two kinds of wrapper:

* ``SPAN`` records a span ``(name, start, end, parent, op, attrs)`` kept in
  memory until :meth:`Tracer.dump`.
* ``COUNT`` is for hot leaf functions called thousands of times per op
  (``step``, ``radar_coordinates``, ``causally_precedes``): it adds to the
  call count and busy time only.

Both kinds feed the per-layer self time: a call's duration minus the time of
the wrapped calls nested inside it.  This module imports only the standard
library, so it can be loaded in a CLI child before ``causalqca`` without
disturbing that child's import timings.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

SPAN = "span"
COUNT = "count"

LAYERS = ("lattice", "observers", "walk", "gates", "units", "recipes", "cli", "diagrams")


def _radar_note(tracer, args, kwargs, result):
    spec = args[0]
    tracer.radar_keys.add((spec.pattern, spec.origin, args[1]))


def _least_squares_attrs(args, kwargs, result):
    return {"nfev": int(result.nfev), "converged": bool(result.success)}


def _solve_attrs(args, kwargs, result):
    return {"status": result.status}


def _fock_attrs(args, kwargs, result):
    gates = args[0]
    return {"gates": len(gates) if hasattr(gates, "__len__") else 0}


def _evolve_attrs(args, kwargs, result):
    state, params = args[0], args[1]
    steps = args[2] if len(args) > 2 else kwargs["steps"]
    # computed, not measured: each step reads the state and writes a new one
    return {"site_steps": params.n_sites * steps, "bytes": 2 * state.nbytes * steps}


def _boost_attrs(args, kwargs, result):
    return {"events": len(result)}


# (span name, layer, module, attribute, kind, attrs-from-call, per-call note)
TARGETS = (
    ("lattice.causally_precedes", "lattice", "causalqca.lattice", "causally_precedes", COUNT, None, None),
    ("observers.radar_coordinates", "observers", "causalqca.observers", "radar_coordinates", COUNT, None, _radar_note),
    ("observers.boost_map", "observers", "causalqca.observers", "boost_map", SPAN, _boost_attrs, None),
    ("observers.fit_lorentz", "observers", "causalqca.observers", "fit_lorentz", SPAN, None, None),
    ("observers.einstein_clock", "observers", "causalqca.observers", "einstein_clock", SPAN, None, None),
    ("observers.foliation_leaf", "observers", "causalqca.observers", "foliation_leaf", SPAN, None, None),
    ("walk.step", "walk", "causalqca.walk", "step", COUNT, None, None),
    ("walk.evolve", "walk", "causalqca.walk", "evolve", SPAN, _evolve_attrs, None),
    ("walk.evolve_fourier", "walk", "causalqca.walk", "evolve_fourier", SPAN, None, None),
    ("walk.zitter_frequency", "walk", "causalqca.walk", "zitter_frequency", SPAN, None, None),
    ("walk.front_speed", "walk", "causalqca.walk", "front_speed", SPAN, None, None),
    ("walk.dispersion", "walk", "causalqca.walk", "dispersion", SPAN, None, None),
    ("walk.effective_hamiltonian_check", "walk", "causalqca.walk", "effective_hamiltonian_check", SPAN, None, None),
    ("walk.generator_small_limit_slope", "walk", "causalqca.walk", "generator_small_limit_slope", SPAN, None, None),
    ("gates.solve_gates", "gates", "causalqca.gates", "solve_gates", SPAN, _solve_attrs, None),
    ("gates.least_squares", "gates", "causalqca.gates", "least_squares", SPAN, _least_squares_attrs, None),
    ("gates.fock_consistency", "gates", "causalqca.gates", "fock_consistency", SPAN, _fock_attrs, None),
    ("gates.fock_gate_matrix", "gates", "causalqca.gates", "fock_gate_matrix", SPAN, None, None),
    ("gates.expm", "gates", "causalqca.gates", "expm", SPAN, None, None),
    ("gates.logm", "gates", "causalqca.gates", "logm", SPAN, None, None),
    ("gates.refraction_bound", "gates", "causalqca.gates", "refraction_bound", COUNT, None, None),
    ("units.load_constants", "units", "causalqca.units", "load_constants", SPAN, None, None),
    ("units.omega_from_compton", "units", "causalqca.units", "omega_from_compton", SPAN, None, None),
    ("units.mass_from_omega", "units", "causalqca.units", "mass_from_omega", SPAN, None, None),
    ("units.causal_speed", "units", "causalqca.units", "causal_speed", SPAN, None, None),
    ("recipes.run_recipe", "recipes", "causalqca.recipes", "run_recipe", SPAN, None, None),
    ("recipes.write_csv", "recipes", "causalqca.recipes", "write_csv", SPAN, None, None),
    ("recipes.write_json", "recipes", "causalqca.recipes", "write_json", SPAN, None, None),
    ("diagrams.spacetime_svg", "diagrams", "causalqca.diagrams", "spacetime_svg", SPAN, None, None),
    ("cli.main", "cli", "causalqca.cli", "main", SPAN, None, None),
)


class Tracer:
    """Spans and counters for one run; install around the ops to be traced."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op id, attrs)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.radar_keys: set = set()
        self.op: int | None = None
        self._stack: list = []  # open frames: [span index or -1, time in wrapped children, parent]
        self._patched: list = []  # (module, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def current_span(self) -> int:
        """Index of the innermost open span, or -1."""
        for frame in reversed(self._stack):
            if frame[0] >= 0:
                return frame[0]
        return -1

    def _enter(self, kind: str) -> list:
        idx = -1
        if kind == SPAN:
            idx = len(self.spans)
            self.spans.append(None)  # placeholder so children can point at it
        frame = [idx, 0.0, self.current_span() if kind == SPAN else -1]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, layer: str, start: float, end: float, attrs) -> None:
        self._stack.pop()
        dt = end - start
        self.calls[name] += 1
        self.busy[name] += dt
        self.self_time[layer] += dt - frame[1]
        if self._stack:
            self._stack[-1][1] += dt
        if frame[0] >= 0:
            self.spans[frame[0]] = (name, start, end, frame[2], self.op, attrs)

    def _wrap(self, name, layer, fn, kind, describe, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(kind)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, name, layer, start, perf_counter(), {"raised": True})
                raise
            end = perf_counter()
            if note is not None:
                note(tracer, args, kwargs, result)
            tracer._exit(frame, name, layer, start, end, describe(args, kwargs, result) if describe else None)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span around the benchmark's own code (an op, a check it times)."""
        frame = self._enter(SPAN)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, layer, start, perf_counter(), None)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "causalqca" or n.startswith("causalqca.")]
        for name, layer, module, attribute, kind, describe, note in TARGETS:
            if module not in sys.modules:
                continue
            original = getattr(sys.modules[module], attribute)
            wrapper = self._wrap(name, layer, original, kind, describe, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- persistence ------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self_time": dict(self.self_time),
            "radar_keys": [[pattern, list(origin), list(e)] for pattern, origin, e in self.radar_keys],
        }

    def merge(self, data: dict, parent: int, op: int | None) -> None:
        """Fold a child process's :meth:`dump` into this tracer under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, p, _, attrs in data["spans"]:
            self.spans.append((name, start, end, parent if p < 0 else p + offset, op, attrs))
        for key, value in data["calls"].items():
            self.calls[key] += value
        for key, value in data["busy"].items():
            self.busy[key] += value
        for key, value in data["self_time"].items():
            self.self_time[key] += value
        self.radar_keys.update(
            (pattern, tuple(origin), tuple(e)) for pattern, origin, e in data["radar_keys"]
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
