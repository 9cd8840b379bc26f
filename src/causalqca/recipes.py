"""Named, reproducible experiment recipes writing diffable CSV/JSON outputs.

Each recipe is a pure function of its descriptor (name + key=value params):
identical descriptors produce byte-identical files.  A recipe returns its
summary, its check result and its tables; :func:`run_recipe` writes the JSON
summary and every table (CSV, JSON or SVG text).  A recipe reports
``ok = False`` when its built-in check fails, which the command-line wrapper
turns into a nonzero exit code.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import gates as gates_mod
from . import units as units_mod
from .diagrams import spacetime_svg
from .observers import (
    ObserverSpec,
    Window,
    boost_map,
    default_scale,
    einstein_clock,
    fit_lorentz,
    foliation_leaf,
    velocity_addition,
)
from .walk import (
    WalkParams,
    dispersion,
    effective_hamiltonian_check,
    front_speed,
    generator_small_limit_slope,
    group_velocity_max,
    zitter_frequency,
)

CONSTANTS_ENV = "CAUSALQCA_CONSTANTS"


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _decade_bound(value: float) -> float:
    """Smallest power of ten bounding a numerical noise floor.

    Raw floors (~1e-15) jitter by a few ulps with the BLAS threading state;
    the bounding decade is reproducible and still flags real regressions.
    """
    if value <= 0.0:
        return 0.0
    return 10.0 ** math.ceil(math.log10(value))


@dataclass
class RecipeResult:
    name: str
    params: dict
    summary: dict
    ok: bool
    files: list[str]


#: A recipe's output files by name: a CSV (header, rows) pair, a JSON dict or SVG text.
Tables = dict[str, tuple[list[str], list[list]] | dict | str]


@dataclass(frozen=True)
class Recipe:
    doc: str
    defaults: dict
    run: Callable[[dict, bool], tuple[dict, bool, Tables]]


def _parse_overrides(defaults: dict, overrides: dict[str, str]) -> dict:
    params = dict(defaults)
    for key, raw in overrides.items():
        if key not in defaults:
            valid = ", ".join(sorted(defaults)) or "(none)"
            raise ValueError(f"unknown parameter {key!r}; valid keys: {valid}")
        kind = type(defaults[key])  # int, float or str
        try:
            params[key] = kind(raw)
        except ValueError:
            article = "an" if kind is int else "a"
            raise ValueError(f"{key} must be {article} {kind.__name__}, got {raw!r}") from None
    return params


# ---------------------------------------------------------------------------
# recipes


def _fig1(params: dict, svg: bool) -> tuple[dict, bool, Tables]:
    rest = ObserverSpec(params["rest_pattern"])
    boosted = ObserverSpec(params["boosted_pattern"])
    rest_clock = einstein_clock(rest, params["separation"])
    boosted_clock = einstein_clock(boosted, params["separation"])
    summary = {
        "rest_ticktac": rest_clock.event_count,
        "boosted_ticktac": boosted_clock.event_count,
        "rest_sep": rest_clock.separation_chart_events,
        "boosted_sep": boosted_clock.separation_leaf_events,
        "rest_pattern": rest.pattern,
        "boosted_pattern": boosted.pattern,
        "boosted_drift": float(boosted.drift),
        "boosted_time_dilation": boosted.time_dilation,
        "boosted_doppler_squared": float(boosted.doppler_squared),
        "ticktac_ratio": boosted_clock.event_count / rest_clock.event_count,
    }
    ok = (
        rest_clock.event_count == 8
        and boosted_clock.event_count == 16
        and rest_clock.separation_chart_events == 2
        and boosted_clock.separation_leaf_events == 1
    )
    tables = {}
    if svg:
        window = Window((-2, 14), (-4, 14))
        du, dv = boosted.leaf_step()
        mirror_b = boosted.translated(du, dv)
        art = spacetime_svg(
            window,
            worldlines=[
                ("rest", [rest.event_at(n) for n in range(-2, 9)]),
                ("rest mirror", [rest.translated(1, -1).event_at(n) for n in range(-2, 9)]),
                ("boosted", [boosted.event_at(n) for n in range(-2, 11)]),
                ("boosted mirror", [mirror_b.event_at(n) for n in range(-2, 11)]),
            ],
            leaves=[
                ("rest leaf", foliation_leaf(rest, 0, window).events),
                ("boosted leaf", foliation_leaf(boosted, 0, window).events),
            ],
            title="light clocks: rest vs boosted",
        )
        tables["fig1.svg"] = art
    return summary, ok, tables


def _lorentz_fit(params: dict, svg: bool) -> tuple[dict, bool, Tables]:
    spec_a = ObserverSpec(params["pattern_a"])
    spec_b = ObserverSpec(params["pattern_b"])
    window = Window.centered(params["t_radius"], params["x_radius"])
    coarse = params["coarse"]
    mapping = boost_map(
        spec_a, spec_b, window,
        scale_a=default_scale(spec_a) * coarse,
        scale_b=default_scale(spec_b) * coarse,
    )
    fit = fit_lorentz(mapping)
    beta_pred = velocity_addition(float(-spec_a.drift), float(spec_b.drift))
    gamma_of_fit = 1.0 / math.sqrt(1.0 - fit.beta**2)
    summary = {
        "beta_hat": fit.beta,
        "gamma_hat": fit.gamma,
        "residual": fit.max_residual,
        "determinant": fit.determinant,
        "beta_predicted": beta_pred,
        "gamma_predicted": gamma_of_fit,
        "n_events": int(len(mapping)),
    }
    ok = (
        abs(fit.beta - beta_pred) <= 0.02
        and abs(fit.gamma - gamma_of_fit) <= 0.02
        and fit.max_residual <= 1.0
        and abs(fit.determinant - 1.0) <= 0.02
    )
    tables = {"mapping.csv": (["tA", "xA", "tB", "xB"], mapping.tolist())}
    if svg:
        window_small = Window((-8, 8), (-10, 10))
        art = spacetime_svg(
            window_small,
            worldlines=[
                (spec_a.pattern, [spec_a.event_at(n) for n in range(-8, 9)]),
                (spec_b.pattern, [spec_b.event_at(n) for n in range(-8, 9)]),
            ],
            leaves=[
                ("A leaves", foliation_leaf(spec_a, 0, window_small).events),
                ("B leaves", foliation_leaf(spec_b, 0, window_small).events),
            ],
            title=f"foliations: {spec_a.pattern} vs {spec_b.pattern}",
        )
        tables["foliations.svg"] = art
    return summary, ok, tables


def _dispersion(params: dict, svg: bool) -> tuple[dict, bool, Tables]:
    walk = WalkParams(params["n_sites"], params["mu"])
    table = dispersion(walk)
    analytic, measured = group_velocity_max(walk)
    summary = {
        "zeta": walk.zeta,
        "mu": walk.mu,
        "group_velocity_analytic": analytic,
        "group_velocity_measured": measured,
        "momentum_resolution": 2.0 * math.pi / walk.n_sites,
    }
    ok = abs(analytic - measured) <= 2.0 * math.pi / walk.n_sites
    rows = [[p, e, g] for p, e, g in zip(table.momenta, table.energy, table.group_velocity)]
    return summary, ok, {"dispersion.csv": (["p", "E", "g"], rows)}


def _zitter(params: dict, svg: bool) -> tuple[dict, bool, Tables]:
    walk = WalkParams(params["n_sites"], params["mu"])
    result = zitter_frequency(walk, params["p0"], params["width"], params["steps"])
    expected = 2.0 * math.acos(max(-1.0, min(1.0, walk.zeta * math.cos(params["p0"]))))
    summary = {
        "zitter_peak": result.frequency,
        "expected_band_gap": expected,
        "resolution": result.resolution,
        "peak_amplitude": result.amplitude,
        "max_unitarity_defect": _decade_bound(float(np.max(np.abs(result.norms - 1.0)))),
    }
    ok = abs(result.frequency - expected) <= result.resolution
    # the norm is a BLAS reduction that moves by an ulp between builds: 12
    # decimals still show any unitarity defect of 5e-13 or more
    norms = [round(float(n), 12) for n in result.norms]
    rows = [[t, x, n] for t, (x, n) in enumerate(zip(result.mean_positions, norms))]
    return summary, ok, {"zitter_series.csv": (["t", "mean_x", "norm"], rows)}


def _front_speed(params: dict, svg: bool) -> tuple[dict, bool, Tables]:
    walk = WalkParams(params["n_sites"], params["mu"])
    speed = front_speed(walk, params["steps"], params["eps"])
    summary = {
        "front_speed": speed,
        "zeta": walk.zeta,
        "eps": params["eps"],
        "steps": params["steps"],
    }
    ok = speed <= 1.0 and abs(speed - walk.zeta) <= 0.05
    return summary, ok, {}


def _bound_scan(params: dict, svg: bool) -> tuple[dict, bool, Tables]:
    if params["count"] < 1:
        raise ValueError(f"count must be at least 1, got {params['count']}")
    rows = []
    for mu in np.linspace(params["mu_min"], params["mu_max"], params["count"]):
        bound = gates_mod.refraction_bound(float(mu))
        rows.append([float(mu), bound.zeta_max, bound.n_min])
    summary = {
        "count": len(rows),
        "mu_min": params["mu_min"],
        "mu_max": params["mu_max"],
        # the zeta_max column, sqrt(1 - mu**2); the key keeps the summary's format
        "printed_bound_values": [row[1] for row in rows],
    }
    return summary, True, {"bound_scan.csv": (["mu", "zeta_max", "n_min"], rows)}


def _gates_verify(params: dict, svg: bool) -> tuple[dict, bool, Tables]:
    solution = gates_mod.solve_gates(
        params["zeta"], params["mu"], restarts=params["restarts"], seed=params["seed"]
    )
    tiles = gates_mod.tile_gates(solution.gate_a, solution.gate_b, params["n_sites"], periodic=False)
    fock = gates_mod.fock_consistency(tiles, params["n_sites"])
    rep = gates_mod.FockRep(params["n_sites"])
    summary = {
        "feasible": solution.status == "feasible",
        "status": solution.status,
        "residual": _decade_bound(solution.residual),
        "requested_residual": _decade_bound(solution.requested_residual),
        "achieved_zeta": round(solution.achieved_zeta, 9),
        "restarts": solution.restarts,
        "seed": solution.seed,
        "fock_max_deviation": _decade_bound(fock.max_deviation),
        "vacuum_phase_re": round(fock.vacuum_phase.real, 9),
        "vacuum_phase_im": round(fock.vacuum_phase.imag, 9),
        "anticommutation_defect": _decade_bound(rep.anticommutation_defect()),
    }
    ok = (
        solution.status == "feasible"
        and solution.residual <= 1e-8
        and fock.max_deviation <= 1e-10
    )
    # the solver stops within ~1e-9 of its fixed gauge; 9 decimals, the
    # precision of achieved_zeta, drop that noise (and -0.0 becomes 0.0)
    gates = gates_mod.gates_to_json(tiles)
    for item in gates:
        item["unitary"] = [[round(x, 9) + 0.0 for x in pair] for pair in item["unitary"]]
    return summary, ok, {"gates.json": {"gates": gates}}


def _eff_hamiltonian(params: dict, svg: bool) -> tuple[dict, bool, Tables]:
    walk = WalkParams(params["n_sites"], params["mu"])
    dev1 = effective_hamiltonian_check(walk, 1)
    dev2 = effective_hamiltonian_check(walk, 2)
    slope = generator_small_limit_slope()
    summary = {
        "deviation_k1": dev1,
        "deviation_k2": dev2,
        "small_limit_slope": slope,
    }
    ok = dev1 <= 1e-12 and dev2 <= 1e-12 and slope >= 2.9
    return summary, ok, {}


_ELECTRON_COMPTON_REDUCED = 3.8615926796e-13  # m
_ELECTRON_MASS = 9.1093837015e-31  # kg
_PROTON_COMPTON_REDUCED = 2.10308910336e-16  # m
_PROTON_MASS = 1.67262192369e-27  # kg


def _units_table(params: dict, svg: bool) -> tuple[dict, bool, Tables]:
    constants_file = os.environ.get(CONSTANTS_ENV) or None
    phys = units_mod.load_constants(constants_file)
    c = units_mod.causal_speed(phys)
    rows = []
    checks = []
    for name, lam, reference_mass in (
        ("electron", _ELECTRON_COMPTON_REDUCED, _ELECTRON_MASS),
        ("proton", _PROTON_COMPTON_REDUCED, _PROTON_MASS),
    ):
        omega = units_mod.omega_from_compton(lam, phys)
        mass = units_mod.mass_from_omega(omega, phys)
        rows.append([name, omega, mass, lam])
        checks.append(abs(mass - reference_mass) / reference_mass)
    planck = units_mod.mass_from_omega(c / _ELECTRON_COMPTON_REDUCED, phys) * c * _ELECTRON_COMPTON_REDUCED
    planck_err = abs(planck - phys.hbar) / phys.hbar
    summary = {
        "c": c,
        "hbar": phys.hbar,
        "constants_file": constants_file or "",
        "electron_mass_rel_err": checks[0],
        "proton_mass_rel_err": checks[1],
        "planck_rel_err": planck_err,
    }
    ok = checks[0] <= 1e-6 and planck_err <= 1e-12
    return summary, ok, {"units.csv": (["name", "omega", "mass_kg", "compton_m"], rows)}


RECIPES: dict[str, Recipe] = {
    "fig1": Recipe(
        "light-clock event counts for a rest and a boosted observer",
        {"rest_pattern": "RL", "boosted_pattern": "RRRL", "separation": 1},
        _fig1,
    ),
    "lorentz_fit": Recipe(
        "fit the boost between two observer charts over an event window",
        {"pattern_a": "RL", "pattern_b": "RRRL", "t_radius": 23, "x_radius": 22, "coarse": 0.5},
        _lorentz_fit,
    ),
    "dispersion": Recipe(
        "band structure and group velocity of the walk",
        {"mu": 0.6, "n_sites": 256},
        _dispersion,
    ),
    "zitter": Recipe(
        "position-jitter frequency of a two-band wavepacket",
        {"mu": 0.6, "p0": 0.0, "width": 8.0, "steps": 1024, "n_sites": 1024},
        _zitter,
    ),
    "front_speed": Recipe(
        "propagation-front speed of a localized state",
        {"mu": 0.6, "steps": 400, "eps": 1e-6, "n_sites": 1024},
        _front_speed,
    ),
    "bound_scan": Recipe(
        "speed bound and vacuum refraction index over the coupling range",
        {"mu_min": 0.0, "mu_max": 1.0, "count": 11},
        _bound_scan,
    ),
    "gates_verify": Recipe(
        "solve for a gate pair and verify it against the Fock oracle",
        {"zeta": 0.8, "mu": 0.6, "n_sites": 4, "restarts": 20, "seed": 0},
        _gates_verify,
    ),
    "eff_hamiltonian": Recipe(
        "coarse-grained generator checks and small-coupling convergence",
        {"mu": 0.6, "n_sites": 64},
        _eff_hamiltonian,
    ),
    "units_table": Recipe(
        "event-count to SI conversions for reference particles",
        {},
        _units_table,
    ),
}


def run_recipe(name: str, overrides: dict[str, str] | None = None,
               out_dir: str | Path = ".", svg: bool = False) -> RecipeResult:
    """Run one named recipe with key=value overrides into ``out_dir``.

    Raises ValueError for an unknown recipe or parameter and for parameter
    values the recipe rejects.
    """
    if name not in RECIPES:
        valid = ", ".join(sorted(RECIPES))
        raise ValueError(f"unknown recipe {name!r}; valid recipes: {valid}")
    recipe = RECIPES[name]
    params = _parse_overrides(recipe.defaults, overrides or {})
    summary, ok, tables = recipe.run(params, svg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / f"{name}.json", {
        "recipe": name,
        "ok": bool(ok),
        "params": {k: _jsonable(v) for k, v in sorted(params.items())},
        "summary": {k: _jsonable(v) for k, v in summary.items()},
    })
    for file_name, table in tables.items():
        if isinstance(table, tuple):
            write_csv(out / file_name, *table)
        elif isinstance(table, dict):
            write_json(out / file_name, table)
        else:
            (out / file_name).write_text(table)
    return RecipeResult(name, params, summary, ok, [f"{name}.json", *tables])
