"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all) and
enforces the criterion's runtime budget with a wide margin.
"""

import math
import time

import numpy as np
import pytest

from causalqca.gates import (
    FockRep,
    canonical_gates,
    fock_consistency,
    gate_spec,
    solve_gates,
    tile_gates,
)
from causalqca.lattice import causally_precedes
from causalqca.observers import (
    ObserverSpec,
    Window,
    boost_map,
    default_scale,
    einstein_clock,
    fit_lorentz,
    radar_coordinates,
    velocity_addition,
)
from causalqca.units import (
    C_SI,
    HBAR_SI,
    PhysicalUnits,
    causal_speed,
    mass_from_omega,
    omega_from_compton,
)
from causalqca.walk import (
    WalkParams,
    delta_state,
    effective_hamiltonian_check,
    evolve,
    generator_small_limit_slope,
    random_state,
    step,
    zitter_frequency,
)

REST = ObserverSpec("RL")
BOOST_PAIRS = (("RRL", 1 / 3), ("RRRL", 1 / 2), ("RRRRL", 3 / 5))
COARSE = 0.5  # symmetric coarse-graining factor used for all boost fits


def _report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_light_clock_counts():
    start = time.perf_counter()
    rest = einstein_clock(REST, 1)
    boosted = einstein_clock(ObserverSpec("RRRL"), 1)
    elapsed = time.perf_counter() - start
    ok = (
        rest.event_count == 8
        and rest.separation_chart_events == 2
        and boosted.event_count == 16
        and boosted.separation_leaf_events == 1
        and elapsed < 1.0
    )
    _report(1, f"tic-tac counts 8/16, separations 2/1 ({elapsed:.3f}s)", ok)


@pytest.mark.parametrize("pattern,beta", BOOST_PAIRS)
def test_criterion_2_emergent_boosts(pattern, beta):
    start = time.perf_counter()
    spec = ObserverSpec(pattern)
    window = Window.centered(23, 22)  # 1057 events
    mapping = boost_map(
        REST, spec, window,
        scale_a=default_scale(REST) * COARSE, scale_b=default_scale(spec) * COARSE,
    )
    fit = fit_lorentz(mapping)
    predicted = velocity_addition(0.0, beta)
    elapsed = time.perf_counter() - start
    ok = (
        len(mapping) >= 1000
        and abs(fit.beta - predicted) <= 0.02
        and abs(fit.gamma - 1 / math.sqrt(1 - fit.beta**2)) <= 0.02
        and fit.max_residual <= 1.0
        and elapsed < 10.0
    )
    _report(
        2,
        f"{pattern}: beta {fit.beta:+.4f} vs {predicted:+.4f}, gamma {fit.gamma:.4f}, "
        f"residual {fit.max_residual:.3f} ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_3_foliation_achronality():
    violations = 0
    leaves_checked = 0
    window = Window.centered(23, 22)
    events = list(window.events())
    for pattern, _ in BOOST_PAIRS:
        for spec in (REST, ObserverSpec(pattern)):
            by_time = {}
            for e in events:
                by_time.setdefault(radar_coordinates(spec, e).t_obs, []).append(e)
            for leaf in by_time.values():
                leaves_checked += 1
                for i, a in enumerate(leaf):
                    for b in leaf[i + 1:]:
                        if causally_precedes(a, b) or causally_precedes(b, a):
                            violations += 1
    ok = violations == 0 and leaves_checked > 0
    _report(3, f"{violations} violations over {leaves_checked} leaves", ok)


def test_criterion_4_walk_unitarity_and_causality():
    start = time.perf_counter()
    basis = np.eye(128, dtype=complex).reshape(128, 64, 2)  # the step applied to each basis state
    w = np.stack([step(e, WalkParams(64, 0.6)).reshape(-1) for e in basis], axis=1)
    unitarity = float(np.max(np.abs(w.conj().T @ w - np.eye(128))))

    params = WalkParams(1024, 0.6)
    psi = random_state(params, np.random.default_rng(0))
    drift = abs(np.linalg.norm(evolve(psi, params, 10_000)) - 1.0)

    growth_ok = True
    small = WalkParams(64, 0.6)
    for steps in range(1, 12):
        state = evolve(delta_state(small, site=32), small, steps)
        occupied = np.nonzero(np.sum(np.abs(state) ** 2, axis=1) > 0)[0]
        growth_ok = growth_ok and int(np.max(np.abs(occupied - 32))) <= steps
    elapsed = time.perf_counter() - start
    ok = unitarity <= 1e-12 and drift <= 1e-9 and growth_ok and elapsed < 10.0
    _report(
        4,
        f"unitarity defect {unitarity:.2e}, norm drift {drift:.2e} over 1e4 steps, "
        f"support growth <= 1 site/step ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_5_zitterbewegung():
    start = time.perf_counter()
    results = {}
    for mu in (0.3, 0.6):
        params = WalkParams(1024, mu)
        res = zitter_frequency(params, p0=0.0, width=8.0, steps=1024)
        expected = 2.0 * math.acos(params.zeta)
        results[mu] = (res.frequency, expected, res.resolution)
    elapsed = time.perf_counter() - start
    ok = all(abs(f - e) <= r for f, e, r in results.values()) and elapsed < 30.0
    detail = ", ".join(
        f"mu={mu}: {f:.4f} vs {e:.4f}" for mu, (f, e, _) in sorted(results.items())
    )
    _report(5, f"{detail} within 2*pi/1024 ({elapsed:.2f}s)", ok)


def test_criterion_6_coarse_grained_generator():
    start = time.perf_counter()
    devs = [effective_hamiltonian_check(WalkParams(64, 0.6), k) for k in (1, 2)]
    slope = generator_small_limit_slope()
    elapsed = time.perf_counter() - start
    ok = max(devs) <= 1e-12 and slope >= 2.9 and elapsed < 5.0
    _report(
        6,
        f"closed-form deviation {max(devs):.2e} at k in {{1,2}}, "
        f"small-coupling slope {slope:.3f} ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_7_refraction_bound_scan():
    start = time.perf_counter()
    worst_feasible = 0.0
    worst_floor = math.inf
    for i, mu in enumerate(np.arange(0.1, 0.95, 0.1)):
        zeta_max = math.sqrt(1.0 - mu * mu)
        feasible = solve_gates(zeta_max * (1 - 1e-6), mu, restarts=20, seed=100 + i)
        assert feasible.status == "feasible", f"mu={mu:.1f} should be feasible"
        worst_feasible = max(worst_feasible, feasible.residual)

        infeasible = solve_gates(zeta_max * 1.001, mu, restarts=20, seed=200 + i)
        assert infeasible.status == "infeasible", f"mu={mu:.1f} should certify infeasible"
        # every pair's defect is at least hypot(zeta, mu) - 1 past the bound
        assert min(infeasible.restart_residuals) >= math.hypot(zeta_max * 1.001, mu) - 1
        worst_floor = min(worst_floor, min(infeasible.restart_residuals))
    elapsed = time.perf_counter() - start
    ok = worst_feasible <= 1e-8 and worst_floor >= 1e-4 and elapsed < 120.0
    _report(
        7,
        f"feasible residual <= {worst_feasible:.2e}, infeasible floor >= {worst_floor:.2e} "
        f"over mu in 0.1..0.9 ({elapsed:.1f}s)",
        ok,
    )


def _random_gates(rng: np.random.Generator, n_sites: int) -> list:
    """Random U(2) blocks on every B then every A tile of an open chain."""
    gates = []
    for kind, count in (("B", n_sites), ("A", n_sites - 1)):
        for site in range(count):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            gates.append(gate_spec(kind, site, q))
    return gates


def test_criterion_8_fock_oracle_agreement():
    start = time.perf_counter()
    anticommutation = FockRep(4).anticommutation_defect()

    tiles = tile_gates(*canonical_gates(0.8, 0.6), 4, periodic=False)
    solved = fock_consistency(tiles, 4)

    random_check = fock_consistency(_random_gates(np.random.default_rng(42), 4), 4)

    elapsed = time.perf_counter() - start
    ok = (
        anticommutation <= 1e-12
        and solved.transfer_deviation <= 1e-10
        and random_check.transfer_deviation <= 1e-10
        and abs(abs(solved.vacuum_phase) - 1.0) <= 1e-12
        and solved.locality_deviation <= 1e-12
        and random_check.locality_deviation <= 1e-12
        and elapsed < 30.0
    )
    _report(
        8,
        f"anticommutation {anticommutation:.1e}, transfer vs oracle "
        f"{max(solved.transfer_deviation, random_check.transfer_deviation):.1e}, vacuum phase "
        f"{solved.vacuum_phase:.3f}, locality "
        f"{solved.locality_deviation:.1e} ({elapsed:.2f}s)",
        ok,
    )


@pytest.mark.parametrize("seed", [None, 42, 7])
def test_fock_oracle_at_five_sites(seed):
    # criterion 8's checks on the longest chain the oracle accepts, dim 1024;
    # seed None is the canonical pair
    if seed is None:
        gates = tile_gates(*canonical_gates(0.8, 0.6), 5, periodic=False)
    else:
        gates = _random_gates(np.random.default_rng(seed), 5)
    check = fock_consistency(gates, 5)
    assert check.transfer_deviation <= 1e-10
    assert abs(abs(check.vacuum_phase) - 1.0) <= 1e-12
    assert check.locality_deviation <= 1e-12


def test_criterion_9_units():
    start = time.perf_counter()
    si = PhysicalUnits()
    electron_lambda = 3.8615926796e-13  # reduced Compton wavelength, CODATA 2018
    electron_mass = 9.1093837015e-31
    mass = mass_from_omega(omega_from_compton(electron_lambda, si), si)
    mass_err = abs(mass - electron_mass) / electron_mass

    planck = mass * causal_speed(si) * electron_lambda
    planck_err = abs(planck - HBAR_SI) / HBAR_SI
    elapsed = time.perf_counter() - start
    ok = mass_err <= 1e-6 and planck_err <= 1e-12 and elapsed < 1.0
    _report(
        9,
        f"electron mass rel err {mass_err:.2e}, Planck relation rel err {planck_err:.2e} "
        f"({elapsed:.3f}s)",
        ok,
    )
