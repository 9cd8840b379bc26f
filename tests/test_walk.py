import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from causalqca.gates import canonical_gates, compose_row, tile_gates
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
    zitter_frequency,
    _line_fit,
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
    # a numpy scalar near the limit must not warn on overflow before the rejection
    for bad in (0.0, -1.0, math.nan, 1e-200, 1e200, 10.0 ** np.float64(-155)):
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


def _roll_step(psi, params):
    # the step as two np.roll stencils, an independent bitwise oracle
    out = np.empty_like(psi)
    out[:, 0] = params.zeta * np.roll(psi[:, 0], 1) + 1j * params.mu * psi[:, 1]
    out[:, 1] = 1j * params.mu * psi[:, 0] + params.zeta * np.roll(psi[:, 1], -1)
    return out


@given(
    st.integers(min_value=1, max_value=32),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(1, 0.0, 0)
@example(1, 1.0, 0)
@settings(max_examples=100)
def test_step_matches_roll_stencil_bit_for_bit(half_sites, mu, seed):
    # at n_sites = 2 each shifted slice is one element long, beside the two wrap entries
    params = WalkParams(2 * half_sites, mu)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((params.n_sites, 2)) + 1j * rng.standard_normal((params.n_sites, 2))
    before = psi.copy()
    out = step(psi, params)
    assert np.array_equal(out, _roll_step(psi, params))
    assert np.array_equal(psi, before) and out is not psi


def test_evolve_matches_roll_stencil_bit_for_bit():
    params = WalkParams(1024, 0.6)
    psi = random_state(params, np.random.default_rng(11))
    ref = psi
    for _ in range(300):
        ref = _roll_step(ref, params)
    assert np.array_equal(evolve(psi, params, 300), ref)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 4]), st.floats(min_value=0.0, max_value=1.0), st.integers(0, 64),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_evolve_on_the_smallest_rings_matches_roll_stencil_bit_for_bit(n_sites, mu, steps, seed):
    # on 2 and 4 sites the ghost columns carry the whole wrap of each shift
    params = WalkParams(n_sites, mu)
    psi = random_state(params, np.random.default_rng(seed))
    ref = psi
    for _ in range(steps):
        ref = _roll_step(ref, params)
    assert np.array_equal(evolve(psi, params, steps), ref)


def test_results_own_their_memory():
    # each result is a fresh copy out of the step buffers: later steps, evolutions and
    # zitter runs on the same ring leave its bytes alone, and no two results share memory
    params = WalkParams(64, 0.6)
    psi = random_state(params, np.random.default_rng(3))
    results = [psi, step(psi, params), step(psi, params), evolve(psi, params, 1), evolve(psi, params, 2)]
    results.append(step(results[1], params))
    frozen = [r.tobytes() for r in results]
    step(results[-1], params)
    evolve(psi, params, 3)
    zitter_frequency(params, p0=0.0, width=2.0, steps=16)
    assert [r.tobytes() for r in results] == frozen
    assert not any(np.shares_memory(a, b) for i, a in enumerate(results) for b in results[i + 1:])


def _roll_zitter(params, p0, width, steps):
    # zitter_frequency's sampling loop on the roll stencil, its bitwise oracle
    psi = gaussian_packet(params, p0=p0, width=width, chirality=(1.0, 1j))
    positions = np.arange(params.n_sites) - params.n_sites // 2
    means, norms = np.empty(steps), np.empty(steps)
    for t in range(steps):
        prob = np.sum(np.abs(psi) ** 2, axis=1)
        means[t] = float(np.sum(positions * prob))
        norms[t] = math.sqrt(np.sum(prob))
        psi = _roll_step(psi, params)
    return means, norms


@pytest.mark.parametrize("n_sites, mu, p0, width, steps", [
    (64, 0.6, 0.0, 2.0, 16),
    (64, 0.0, 0.3, 2.0, 12),
    (256, 0.3, -1.0, 4.0, 48),
    (1024, 0.6, 0.0, 8.0, 1024),
])
def test_zitter_loop_matches_roll_stencil_bit_for_bit(n_sites, mu, p0, width, steps):
    result = zitter_frequency(WalkParams(n_sites, mu), p0=p0, width=width, steps=steps)
    means, norms = _roll_zitter(WalkParams(n_sites, mu), p0, width, steps)
    assert result.mean_positions.tobytes() == means.tobytes()
    assert result.norms.tobytes() == norms.tobytes()


def test_step_reads_its_own_transposed_output_bit_for_bit():
    # step returns a transposed view of its chirality rows; a C-ordered copy of
    # that state must step to the same bits
    params = WalkParams(64, 0.6)
    once = step(random_state(params, np.random.default_rng(5)), params)
    assert once.flags.f_contiguous and not once.flags.c_contiguous
    assert step(once, params).tobytes() == step(np.ascontiguousarray(once), params).tobytes()


def _dense_step(params):
    # column k is the walk step applied to the k-th site-major basis state
    basis = np.eye(2 * params.n_sites, dtype=complex).reshape(-1, params.n_sites, 2)
    return np.stack([step(e, params).reshape(-1) for e in basis], axis=1)


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.6, 1.0])
def test_step_matrix_unitary(mu):
    w = _dense_step(WalkParams(64, mu))
    assert np.max(np.abs(w.conj().T @ w - np.eye(128))) < 1e-12


@pytest.mark.parametrize("n_sites", [4, 8])
@pytest.mark.parametrize("mu", [0.0, 0.3, 0.6, 1.0])
def test_step_is_the_gate_circuit(n_sites, mu):
    # the walk is the tiled (A, B) circuit read as a state map: W = T^dag, bit for bit
    params = WalkParams(n_sites, mu)
    t = compose_row(tile_gates(*canonical_gates(params.zeta, mu), n_sites), n_sites)
    assert np.array_equal(_dense_step(params), t.conj().T)


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


walk_params = st.builds(WalkParams, st.integers(1, 32).map(lambda half: 2 * half), st.floats(0, 1))
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(walk_params, st.integers(-64, 64), seeds)
@example(WalkParams(32, 0.6), 5, 1).via("the single example this property replaced")
def test_translation_covariance_exact(params, shift, seed):
    # the step is the same elementwise arithmetic at every site, so shifting the ring commutes with it bitwise
    psi = random_state(params, np.random.default_rng(seed))
    rolled_then_stepped = step(np.roll(psi, shift, axis=0), params)
    stepped_then_rolled = np.roll(step(psi, params), shift, axis=0)
    assert np.array_equal(rolled_then_stepped, stepped_then_rolled)


def _mirror(state):
    """n -> -n on the ring with the chirality swapped: site 0 stays put."""
    return np.roll(state[::-1, ::-1], 1, axis=0)


@settings(max_examples=200, deadline=None)
@given(walk_params, seeds)
@example(WalkParams(32, 0.6), 2).via("the single example this property replaced")
def test_parity_covariance(params, seed):
    # mirroring sites and swapping chirality commutes with the step; each output entry is
    # zeta psi + i mu psi' on either side, but SIMD and scalar loops may round a moved entry
    # differently: one product and one sum per part, on values below twice the largest
    # amplitude, so 8 ulps of that amplitude bound it (3000 random trials on x86-64 were bitwise equal)
    psi = random_state(params, np.random.default_rng(seed))
    bound = 8 * np.spacing(np.max(np.abs(psi)))
    assert np.max(np.abs(step(_mirror(psi), params) - _mirror(step(psi, params)))) <= bound


@settings(max_examples=100, deadline=None)
@given(walk_params, st.integers(0, 40), seeds)
def test_evolve_is_repeated_step(params, steps, seed):
    psi = random_state(params, np.random.default_rng(seed))
    stepped = psi
    for _ in range(steps):
        stepped = step(stepped, params)
    assert np.array_equal(evolve(psi, params, steps), stepped)


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

    # bands are even and group velocities odd in momentum, bit for bit; the sorted
    # grid holds -pi (no +pi partner), the negative momenta, 0 and their mirror images
    for n_sites in (2, 16, 64, 250, 1024):
        for mu in np.linspace(0.0, 1.0, 41):
            table = dispersion(WalkParams(n_sites, mu))
            neg, pos = slice(n_sites // 2 - 1, 0, -1), slice(n_sites // 2 + 1, None)
            assert table.momenta[neg].tobytes() == (-table.momenta[pos]).tobytes()
            assert table.energy[neg].tobytes() == table.energy[pos].tobytes()
            assert table.group_velocity[neg].tobytes() == (-table.group_velocity[pos]).tobytes()


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


def _site_major_zitter(params, p0, width, steps):
    # the zitter loop in momentum space on (n_sites, 2) site-major arrays, the
    # oracle of zitter_frequency's loop on the real-space step
    psi = gaussian_packet(params, p0=p0, width=width, chirality=(1.0, 1j))
    positions = np.arange(params.n_sites) - params.n_sites // 2
    blocks = momentum_blocks(params, 1)
    phi = np.fft.ifft(psi, axis=0, norm="ortho")
    means, norms = np.empty(steps), np.empty(steps)
    for t in range(steps):
        grid = np.fft.fft(phi, axis=0, norm="ortho")
        means[t] = float(np.dot(positions, np.sum(np.abs(grid) ** 2, axis=1)))
        norms[t] = float(np.linalg.norm(grid))
        phi = np.einsum("pij,pj->pi", blocks, phi)
    return means, norms


@pytest.mark.parametrize("mu", [0.3, 0.6])
def test_zitter_loop_matches_site_major_oracle(mu):
    params = WalkParams(1024, mu)
    result = zitter_frequency(params, p0=0.0, width=8.0, steps=1024)
    means, norms = _site_major_zitter(params, 0.0, 8.0, 1024)
    assert np.max(np.abs(result.mean_positions - means)) <= 1e-12
    assert np.max(np.abs(result.norms - norms)) <= 1e-12


def test_zitter_massless_has_no_peak():
    result = zitter_frequency(WalkParams(1024, 0.0), p0=0.0, width=8.0, steps=400)
    assert result.amplitude < 1e-8


def test_zitter_guards():
    with pytest.raises(ValueError):
        zitter_frequency(WalkParams(1024, 0.6), p0=0.0, width=8.0, steps=5)
    with pytest.raises(ValueError):
        zitter_frequency(WalkParams(128, 0.6), p0=1.2, width=8.0, steps=1024)
    # at p0 = pi the gap 5.0 rad/step is seen at its alias 1.29, which 5 steps cannot resolve
    with pytest.raises(ValueError, match="need at least 10 steps"):
        zitter_frequency(WalkParams(1024, 0.6), p0=math.pi, width=8.0, steps=5)
    # 4 - 2*pi wraps (reach 162 sites), so 4 must not pass on the band read at 3.14
    with pytest.raises(ValueError, match="estimated reach 162 sites"):
        zitter_frequency(WalkParams(256, 0.6), p0=4.0 - 2.0 * math.pi, width=6.0, steps=150)
    for p0 in (4.0, 1e308):
        with pytest.raises(ValueError, match=re.escape(f"p0 must lie in [-pi, pi], got {p0}")):
            zitter_frequency(WalkParams(256, 0.6), p0=p0, width=6.0, steps=150)


@pytest.mark.parametrize("mu, steps", [(1e-9, 1024), (1e-300, 2)])
def test_zitter_rejects_a_band_gap_that_rounds_to_zero(mu, steps):
    # zeta rounds to 1, so no step count can resolve the oscillation
    with pytest.raises(ValueError, match=f"mu={mu} has a band gap at p0=0.0 that rounds to zero"):
        zitter_frequency(WalkParams(1024, mu), p0=0.0, width=8.0, steps=steps)


@pytest.mark.parametrize("width", [1e-200, 1e-320, 0.0, -1.0, math.nan])
def test_zitter_rejects_tiny_and_bad_widths(width):
    # the pytest filter turns a RuntimeWarning from the packet into a failure;
    # the massless walk's reach estimate does not divide by the width
    for params, steps in ((WalkParams(1024, 0.6), 1024), (WalkParams(256, 0.0), 64)):
        with pytest.raises(ValueError):
            zitter_frequency(params, p0=0.0, width=width, steps=steps)


def test_packet_wrap_message_stays_short():
    with pytest.raises(ValueError, match=r"estimated reach \d\.\d\de\+203 sites") as info:
        zitter_frequency(WalkParams(1024, 0.6), p0=0.0, width=1e-200, steps=1024)
    assert len(str(info.value)) < 120


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


@st.composite
def _line_samples(draw):
    n = draw(st.integers(2, 64))
    a = np.array(draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))) / 1000.0
    b = np.array(draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=n, max_size=n)))
    return a, b, np.array(draw(st.permutations(range(n))))


@settings(max_examples=300, deadline=None)
@given(_line_samples())
@example((np.array([0.0, 1.0]), np.array([1.0, 3.0]), np.array([1, 0]))).via("an exact line")
def test_line_fit_is_order_free_and_agrees_with_polyfit(samples):
    a, b, order = samples
    if a.min() == a.max():
        with pytest.raises(ValueError, match="degenerate sample set"):
            _line_fit(a, b)
        return
    slope, intercept, residuals = _line_fit(a, b)
    # each sum is fsum's correctly rounded one, so permuting the samples permutes the residuals
    # and leaves slope and intercept bit for bit
    permuted = _line_fit(a[order], b[order])
    assert permuted[:2] == (slope, intercept)
    assert np.array_equal(permuted[2], residuals[order])
    # np.polyfit is LAPACK's least-squares solve of the same problem: the fitted values of
    # both stay within 8 eps * cond * max|b| (20000 random fits, ill-conditioned ones
    # included, came within 1.6 of that unit)
    reference = np.polyval(np.polyfit(a, b, 1), a)
    kappa = np.linalg.cond(np.vander(a, 2))
    assert np.max(np.abs((b - residuals) - reference)) <= 8 * np.finfo(float).eps * kappa * np.max(np.abs(b))
