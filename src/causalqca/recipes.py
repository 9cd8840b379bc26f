"""Named, reproducible experiment recipes writing diffable CSV/JSON outputs.

A recipe is a function ``recipe(svg, *, key=default, ...)``: its keyword-only
parameters are its ``key=value`` settings, typed by their defaults, and its
docstring is its line in ``causalqca list``.  Identical settings produce
byte-identical files.  A recipe returns its summary, its check result and its
tables; :func:`run_recipe` writes the JSON summary and every table (CSV, JSON
or SVG text).  A recipe reports ``ok = False`` when its built-in check fails,
which the command-line wrapper turns into a nonzero exit code.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gates as gates_mod
from . import units as units_mod
from .diagrams import spacetime_svg
from .observers import (
    ClockTicTac,
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
    ok: bool
    files: list[str]


#: A recipe's output files by name: a CSV (header, rows) pair, a JSON dict or SVG text.
Tables = dict[str, tuple[list[str], list[list]] | dict | str]


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


def _clock_ok(clock: ClockTicTac, period: int, sep: int) -> bool:
    """Check a light clock's count against a radar round trip across ``sep`` leaf steps.

    The outward ray meets the far mirror just after the last L of its sep-th
    period.  The return ray needs the near mirror's u to grow by
    (2*sep - 1)*nR plus the j R steps before a period's last L, which it does
    j R steps into its 2*sep-th period.  So the trip ends at an index m in
    [(2*sep - 1)*P, 2*sep*P - 1], and the count 2*(m + 1) lies in
    [4*sep*P - 2*(P - 1), 4*sep*P]: L...LR...R attains the low end, ...RL the high.
    """
    full = 4 * period * sep
    return (clock.event_count % 2 == 0
            and full - 2 * (period - 1) <= clock.event_count <= full
            and clock.separation_chart_events == sep * period
            and clock.separation_leaf_events == sep)


def _fig1(svg: bool, *, rest_pattern: str = "RL", boosted_pattern: str = "RRRL",
          separation: int = 1) -> tuple[dict, bool, Tables]:
    """light-clock event counts for a rest and a boosted observer"""
    rest = ObserverSpec(rest_pattern)
    boosted = ObserverSpec(boosted_pattern)
    rest_clock = einstein_clock(rest, separation)
    boosted_clock = einstein_clock(boosted, separation)
    summary = {
        "rest_ticktac": rest_clock.event_count,
        "boosted_ticktac": boosted_clock.event_count,
        "rest_sep": rest_clock.separation_chart_events,
        "boosted_sep": boosted_clock.separation_leaf_events,
        "rest_pattern": rest.pattern,
        "boosted_pattern": boosted.pattern,
        "boosted_drift": boosted.drift,
        "boosted_time_dilation": boosted.time_dilation,
        "boosted_doppler_squared": boosted.doppler_squared,
        "ticktac_ratio": boosted_clock.event_count / rest_clock.event_count,
    }
    ok = (_clock_ok(rest_clock, rest.period, separation)
          and _clock_ok(boosted_clock, boosted.period, separation))
    tables = {}
    if svg:
        window = Window((-2, 14), (-4, 14))
        worldlines = []
        for label, spec, stop in (("rest", rest, 9), ("boosted", boosted, 11)):
            mirror = spec.far_mirror(separation)  # where einstein_clock counts it
            worldlines += [(label, [spec.event_at(n) for n in range(-2, stop)]),
                           (f"{label} mirror", [mirror.event_at(n) for n in range(-2, stop)])]
        tables["fig1.svg"] = spacetime_svg(
            window,
            worldlines=worldlines,
            leaves=[
                ("rest leaf", foliation_leaf(rest, 0, window).events),
                ("boosted leaf", foliation_leaf(boosted, 0, window).events),
            ],
            title="light clocks: rest vs boosted",
        )
    return summary, ok, tables


def _lorentz_fit(svg: bool, *, pattern_a: str = "RL", pattern_b: str = "RRRL", t_radius: int = 23,
                 x_radius: int = 22, coarse: float = 0.5) -> tuple[dict, bool, Tables]:
    """fit the boost between two observer charts over an event window"""
    spec_a = ObserverSpec(pattern_a)
    spec_b = ObserverSpec(pattern_b)
    window = Window.centered(t_radius, x_radius)
    mapping = boost_map(
        spec_a, spec_b, window,
        scale_a=default_scale(spec_a) * coarse,
        scale_b=default_scale(spec_b) * coarse,
    )
    fit = fit_lorentz(mapping)
    beta_pred = velocity_addition(-spec_a.drift, spec_b.drift)
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
        # each chart rounds to its own event grid, so the residual scales with coarse
        and fit.max_residual <= 2.0 * coarse
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


def _dispersion(svg: bool, *, mu: float = 0.6, n_sites: int = 256) -> tuple[dict, bool, Tables]:
    """band structure and group velocity of the walk"""
    walk = WalkParams(n_sites, mu)
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


def _zitter(svg: bool, *, mu: float = 0.6, p0: float = 0.0, width: float = 8.0, steps: int = 1024,
            n_sites: int = 1024) -> tuple[dict, bool, Tables]:
    """position-jitter frequency of a two-band wavepacket"""
    walk = WalkParams(n_sites, mu)
    result = zitter_frequency(walk, p0, width, steps)
    expected = 2.0 * math.acos(walk.zeta * math.cos(p0))
    summary = {
        "zitter_peak": result.frequency,
        "expected_band_gap": expected,
        "resolution": result.resolution,
        "peak_amplitude": result.amplitude,
        "max_unitarity_defect": _decade_bound(float(np.max(np.abs(result.norms - 1.0)))),
    }
    # one sample per step sees a gap above pi at its alias 2*pi - gap
    ok = abs(result.frequency - min(expected, 2.0 * math.pi - expected)) <= result.resolution
    # the norm drifts from 1 by the steps' last-ulp rounding, which no build
    # promises: 12 decimals still show any unitarity defect of 5e-13 or more
    norms = [round(float(n), 12) for n in result.norms]
    rows = [[t, x, n] for t, (x, n) in enumerate(zip(result.mean_positions, norms))]
    return summary, ok, {"zitter_series.csv": (["t", "mean_x", "norm"], rows)}


def _front_speed(svg: bool, *, mu: float = 0.6, steps: int = 400, eps: float = 1e-6,
                 n_sites: int = 1024) -> tuple[dict, bool, Tables]:
    """propagation-front speed of a localized state"""
    walk = WalkParams(n_sites, mu)
    speed = front_speed(walk, steps, eps)
    summary = {
        "front_speed": speed,
        "zeta": walk.zeta,
        "eps": eps,
        "steps": steps,
    }
    # the front is an Airy edge: its lead over zeta shrinks as (ln(1/eps) / steps)**(2/3); a scan
    # of mu in [0.05, 0.99], eps in [1e-12, 1e-3] and 20-400 steps found leads of 0 to 0.40 times
    # that scale, so the constant 0.5 leaves a quarter in hand
    ok = speed <= 1.0 and abs(speed - walk.zeta) <= 0.5 * (math.log(1.0 / eps) / steps) ** (2 / 3)
    return summary, ok, {}


def _bound_scan(svg: bool, *, mu_min: float = 0.0, mu_max: float = 1.0,
                count: int = 11) -> tuple[dict, bool, Tables]:
    """speed bound and vacuum refraction index over the coupling range"""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    for key, value in (("mu_min", mu_min), ("mu_max", mu_max)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{key} must lie in [0, 1], got {value}")
    rows = []
    for mu in np.linspace(mu_min, mu_max, count):
        bound = gates_mod.refraction_bound(float(mu))
        rows.append([float(mu), bound.zeta_max, bound.n_min])
    summary = {
        "count": len(rows),
        "mu_min": mu_min,
        "mu_max": mu_max,
        # the zeta_max column, sqrt(1 - mu**2); the key keeps the summary's format
        "printed_bound_values": [row[1] for row in rows],
    }
    return summary, True, {"bound_scan.csv": (["mu", "zeta_max", "n_min"], rows)}


def _gates_verify(svg: bool, *, zeta: float = 0.8, mu: float = 0.6, n_sites: int = 4,
                  restarts: int = 20, seed: int = 0) -> tuple[dict, bool, Tables]:
    """solve for a gate pair and verify it against the Fock oracle"""
    rep = gates_mod.fock_rep(n_sites)  # rejects n_sites before the solve; fock_consistency reuses it
    solution = gates_mod.solve_gates(zeta, mu, restarts=restarts, seed=seed)
    tiles = gates_mod.tile_gates(solution.gate_a, solution.gate_b, n_sites, periodic=False)
    fock = gates_mod.fock_consistency(tiles, n_sites)
    summary = {
        "feasible": solution.status == "feasible",
        "status": solution.status,
        "residual": _decade_bound(solution.residual),
        "requested_residual": _decade_bound(solution.requested_residual),
        "achieved_zeta": solution.achieved_zeta,
        "restarts": len(solution.restart_residuals),
        "seed": seed,
        "fock_max_deviation": _decade_bound(fock.max_deviation),
        "anticommutation_defect": _decade_bound(rep.anticommutation_defect()),
    }
    ok = solution.status == "feasible" and fock.max_deviation <= 1e-10
    return summary, ok, {"gates.json": {"gates": gates_mod.gates_to_json(tiles)}}


def _eff_hamiltonian(svg: bool, *, mu: float = 0.6, n_sites: int = 64) -> tuple[dict, bool, Tables]:
    """coarse-grained generator checks and small-coupling convergence"""
    walk = WalkParams(n_sites, mu)
    dev1 = effective_hamiltonian_check(walk, 1)
    dev2 = effective_hamiltonian_check(walk, 2)
    slope = generator_small_limit_slope()
    summary = {
        "deviation_k1": _decade_bound(dev1),
        "deviation_k2": _decade_bound(dev2),
        "small_limit_slope": slope,
    }
    # the remainder is cubic, so the slope is 3; its next order, ~0.39 s**2 relative, bends
    # the local slope by at most 0.016 at the largest sampled s = 0.14, and 0.05 leaves room
    ok = dev1 <= 1e-12 and dev2 <= 1e-12 and abs(slope - 3.0) <= 0.05
    return summary, ok, {}


_ELECTRON_COMPTON_REDUCED = 3.8615926796e-13  # m
_ELECTRON_MASS = 9.1093837015e-31  # kg
_PROTON_COMPTON_REDUCED = 2.10308910336e-16  # m
_PROTON_MASS = 1.67262192369e-27  # kg


def _units_table(svg: bool) -> tuple[dict, bool, Tables]:
    """event-count to SI conversions for reference particles"""
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
    ok = max(checks) <= 1e-6 and planck_err <= 1e-12
    return summary, ok, {"units.csv": (["name", "omega", "mass_kg", "compton_m"], rows)}


RECIPES = {
    "fig1": _fig1,
    "lorentz_fit": _lorentz_fit,
    "dispersion": _dispersion,
    "zitter": _zitter,
    "front_speed": _front_speed,
    "bound_scan": _bound_scan,
    "gates_verify": _gates_verify,
    "eff_hamiltonian": _eff_hamiltonian,
    "units_table": _units_table,
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
    params = _parse_overrides(recipe.__kwdefaults__ or {}, overrides or {})
    summary, ok, tables = recipe(svg, **params)
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
    return RecipeResult(name, ok, [f"{name}.json", *tables])
