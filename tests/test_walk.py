import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalqca.walk import (
    WalkParams,
    delta_state,
    dispersion,
    effective_hamiltonian_check,
    evolve,
    evolve_fourier,
    front_speed,
    gaussian_packet,
    generator_small_limit_deviation,
    generator_small_limit_slope,
    group_velocity_max,
    momentum_blocks,
    random_state,
    step,
    step_matrix,
    zitter_frequency,
)


def test_params_validation():
    assert WalkParams(16, 0.6).zeta == pytest.approx(0.8)
    with pytest.raises(ValueError):
        WalkParams(15, 0.5)  # odd
    with pytest.raises(ValueError):
        WalkParams(16, 1.5)


def test_gaussian_packet_is_centred_and_rejects_bad_width():
    params = WalkParams(64, 0.6)
    psi = gaussian_packet(params, p0=0.3, width=4.0)
    assert np.argmax(np.sum(np.abs(psi) ** 2, axis=1)) == 32
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="width must be positive"):
            gaussian_packet(params, p0=0.0, width=bad)


def test_massless_step_is_pure_shift():
    params = WalkParams(16, 0.0)
    psi = delta_state(params, site=0, chirality=(1, 0))
    out = step(psi, params)
    assert out[1, 0] == 1.0 and np.count_nonzero(out) == 1


def test_maximal_coupling_flips_chirality_in_place():
    params = WalkParams(16, 1.0)
    psi = delta_state(params, site=0, chirality=(1, 0))
    out = step(psi, params)
    assert out[0, 1] == 1j and np.count_nonzero(out) == 1


def _reference_step(psi, params):
    # independent dense oracle assembled entry by entry from the stencil
    n = params.n_sites
    w = np.zeros((2 * n, 2 * n), dtype=complex)
    for m in range(n):
        w[2 * m, 2 * ((m - 1) % n)] += params.zeta
        w[2 * m, 2 * m + 1] += 1j * params.mu
        w[2 * m + 1, 2 * m] += 1j * params.mu
        w[2 * m + 1, 2 * ((m + 1) % n) + 1] += params.zeta
    return (w @ psi.reshape(-1)).reshape(n, 2)


@pytest.mark.parametrize("n_sites", [4, 16, 64])
def test_step_matches_dense_oracle(n_sites):
    params = WalkParams(n_sites, 0.6)
    rng = np.random.default_rng(n_sites)
    psi = random_state(params, rng)
    assert np.max(np.abs(step(psi, params) - _reference_step(psi, params))) < 1e-15


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.6, 1.0])
def test_step_matrix_unitary(mu):
    params = WalkParams(64, mu)
    w = step_matrix(params)
    assert np.max(np.abs(w.conj().T @ w - np.eye(128))) < 1e-12


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=20)
def test_norm_preserved(seed):
    params = WalkParams(32, 0.6)
    psi = random_state(params, np.random.default_rng(seed))
    assert abs(np.linalg.norm(step(psi, params)) - 1.0) < 1e-14


def test_evolve_semigroup_and_identity():
    params = WalkParams(32, 0.6)
    psi = random_state(params, np.random.default_rng(0))
    assert np.array_equal(evolve(psi, params, 0), psi)
    assert np.array_equal(evolve(psi, params, 5), evolve(evolve(psi, params, 2), params, 3))


def test_massless_evolution_translates():
    params = WalkParams(32, 0.0)
    psi = delta_state(params, site=3, chirality=(1, 0))
    out = evolve(psi, params, 10)
    assert out[13, 0] == 1.0 and np.count_nonzero(out) == 1


def test_translation_covariance_exact():
    params = WalkParams(32, 0.6)
    psi = random_state(params, np.random.default_rng(1))
    rolled_then_stepped = step(np.roll(psi, 5, axis=0), params)
    stepped_then_rolled = np.roll(step(psi, params), 5, axis=0)
    assert np.array_equal(rolled_then_stepped, stepped_then_rolled)


def test_parity_covariance():
    # mirroring sites and swapping chirality commutes with the step
    params = WalkParams(32, 0.6)
    psi = random_state(params, np.random.default_rng(2))

    def mirror(state):
        flipped = state[::-1][:, ::-1]
        return np.roll(flipped, 1, axis=0)  # keep site 0 fixed under n -> -n

    assert np.max(np.abs(step(mirror(psi), params) - mirror(step(psi, params)))) < 1e-15


def test_support_grows_at_most_one_site_per_step():
    params = WalkParams(64, 0.6)
    psi = delta_state(params, site=32)
    for steps in (1, 2, 5, 9):
        out = evolve(delta_state(params, site=32), params, steps)
        occupied = np.nonzero(np.sum(np.abs(out) ** 2, axis=1) > 0)[0]
        assert np.max(np.abs(occupied - 32)) <= steps


def test_fourier_backend_agrees_with_real_space():
    for mu in (0.0, 0.25, 0.6, 1.0):
        params = WalkParams(64, mu)
        psi = random_state(params, np.random.default_rng(7))
        a = evolve(psi.copy(), params, 9)
        b = evolve_fourier(psi, params, 9)
        assert np.max(np.abs(a - b)) < 1e-12


def test_momentum_blocks_are_unitary_powers():
    params = WalkParams(16, 0.6)
    w1 = momentum_blocks(params, 1)
    w3 = momentum_blocks(params, 3)
    for k in range(params.n_sites):
        assert np.allclose(w1[k] @ w1[k].conj().T, np.eye(2), atol=1e-14)
        assert np.allclose(np.linalg.matrix_power(w1[k], 3), w3[k], atol=1e-13)


def test_dispersion_examples():
    table = dispersion(WalkParams(64, 0.6))
    i0 = int(np.argmin(np.abs(table.momenta)))
    assert table.energy[i0] == pytest.approx(math.acos(0.8), abs=1e-14)
    ihalf = int(np.argmin(np.abs(table.momenta - math.pi / 2)))
    assert table.energy[ihalf] == pytest.approx(math.pi / 2, abs=1e-12)

    massless = dispersion(WalkParams(64, 0.0))
    assert np.allclose(massless.energy, np.abs(massless.momenta), atol=1e-12)

    # bands are even in momentum (skip -pi, which has no +pi partner on the grid)
    sym = dispersion(WalkParams(64, 0.3))
    for p, e in zip(sym.momenta, sym.energy):
        j = int(np.argmin(np.abs(sym.momenta + p)))
        if abs(sym.momenta[j] + p) < 1e-12:
            assert e == pytest.approx(sym.energy[j], abs=1e-12)


@pytest.mark.parametrize("mu,expected", [(0.0, 1.0), (0.6, 0.8), (1.0, 0.0)])
def test_group_velocity_max(mu, expected):
    params = WalkParams(256, mu)
    analytic, measured = group_velocity_max(params)
    assert analytic == pytest.approx(expected, abs=1e-12)
    assert abs(analytic - measured) <= 2 * math.pi / params.n_sites


def test_front_speed_examples():
    assert front_speed(WalkParams(1024, 0.0), 400, 1e-6) == 1.0
    speed = front_speed(WalkParams(1024, 0.6), 400, 1e-6)
    assert 0.75 <= speed <= 0.85
    for mu in (0.2, 0.5, 0.9):
        assert front_speed(WalkParams(256, mu), 100, 1e-9) <= 1.0
    with pytest.raises(ValueError):
        front_speed(WalkParams(64, 0.5), 100, 1e-6)  # ring too small
    with pytest.raises(ValueError):
        front_speed(WalkParams(1024, 0.5), 100, 2.0)  # bad threshold


def _band_gap_oracle(params, p0):
    # independent 2x2 eigenphase computation of the one-step block at p0
    w = np.array(
        [[params.zeta * np.exp(1j * p0), 1j * params.mu],
         [1j * params.mu, params.zeta * np.exp(-1j * p0)]]
    )
    phases = np.angle(np.linalg.eigvals(w))
    return abs(phases[0] - phases[1])


@pytest.mark.parametrize("mu", [0.3, 0.6])
def test_zitter_frequency_matches_band_gap(mu):
    params = WalkParams(1024, mu)
    result = zitter_frequency(params, p0=0.0, width=8.0, steps=1024)
    assert abs(result.frequency - _band_gap_oracle(params, 0.0)) <= result.resolution
    assert result.amplitude > 0.05
    assert np.max(np.abs(result.norms - 1.0)) < 1e-12


def test_zitter_massless_has_no_peak():
    result = zitter_frequency(WalkParams(1024, 0.0), p0=0.0, width=8.0, steps=400)
    assert result.amplitude < 1e-8


def test_zitter_guards():
    with pytest.raises(ValueError):
        zitter_frequency(WalkParams(1024, 0.6), p0=0.0, width=8.0, steps=5)
    with pytest.raises(ValueError):
        zitter_frequency(WalkParams(128, 0.6), p0=1.2, width=8.0, steps=1024)


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.6, 0.95])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_effective_hamiltonian_closed_form(mu, k):
    assert effective_hamiltonian_check(WalkParams(64, mu), k) < 1e-12


def test_generator_small_limit():
    # remainder falls off cubically in the joint momentum/coupling scale
    assert generator_small_limit_slope() >= 2.9
    assert generator_small_limit_deviation(0.0, 0.0, k=1) == 0.0
    big = generator_small_limit_deviation(0.2, 0.2, k=2)
    small = generator_small_limit_deviation(0.02, 0.02, k=2)
    assert big / small == pytest.approx(1000, rel=0.2)
