"""One-particle zigzag dynamics: a two-component nearest-neighbour unitary walk.

A state assigns each site n a chirality pair (psi_plus, psi_minus).  One step
couples the two components with strength ``mu`` while transporting them in
opposite directions with amplitude ``zeta``:

    (W psi)+_n = zeta * psi+_{n-1} + 1j * mu * psi-_n
    (W psi)-_n = 1j * mu * psi+_n  + zeta * psi-_{n+1}

Unitarity pins ``zeta**2 + mu**2 = 1``: the mass coupling necessarily slows
the flow below the causal speed.  In momentum space the step is the 2x2 block

    W(p) = [[zeta*e^{ip}, 1j*mu], [1j*mu, zeta*e^{-ip}]]

whose eigenphases give the band ``cos E(p) = zeta * cos p``.  Sites live on a
ring (n_sites even) so momentum space is exact; one step advances two gate
rows, i.e. one site of transport per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class WalkParams:
    """Ring size plus the mass coupling mu of one step.

    The flow speed ``zeta`` is sqrt(1 - mu**2), the unique value for which
    the step operator is unitary.
    """

    n_sites: int
    mu: float

    def __post_init__(self):
        if self.n_sites <= 0 or self.n_sites % 2 != 0:
            raise ValueError("n_sites must be a positive even integer")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")

    @cached_property
    def zeta(self) -> float:
        return math.sqrt(1.0 - self.mu * self.mu)

    def momenta(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_sites)


def delta_state(params: WalkParams, site: int | None = None,
                chirality: tuple[complex, complex] = (1.0, 1.0)) -> np.ndarray:
    """A normalized state localized on one site (default: centre of the ring)."""
    psi = np.zeros((params.n_sites, 2), dtype=complex)
    n = params.n_sites // 2 if site is None else site % params.n_sites
    amp = np.asarray(chirality, dtype=complex)
    psi[n] = amp / np.linalg.norm(amp)
    return psi


def gaussian_packet(params: WalkParams, p0: float, width: float,
                    chirality: tuple[complex, complex] = (1.0, 1.0)) -> np.ndarray:
    """Gaussian wavepacket at momentum p0 about the ring's centre site."""
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    n = np.arange(params.n_sites)
    envelope = np.exp(-((n - params.n_sites // 2) ** 2) / (4.0 * width**2) + 1j * p0 * n)
    amp = np.asarray(chirality, dtype=complex)
    psi = envelope[:, None] * (amp / np.linalg.norm(amp))[None, :]
    return psi / np.linalg.norm(psi)


def random_state(params: WalkParams, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal((params.n_sites, 2)) + 1j * rng.standard_normal((params.n_sites, 2))
    return psi / np.linalg.norm(psi)


def step(state: np.ndarray, params: WalkParams) -> np.ndarray:
    """Apply the walk unitary once (norm preserved to machine precision)."""
    if state.shape != (params.n_sites, 2):
        raise ValueError(f"state shape {state.shape} does not match n_sites={params.n_sites}")
    out = np.empty_like(state)
    out[:, 0] = params.zeta * np.roll(state[:, 0], 1) + 1j * params.mu * state[:, 1]
    out[:, 1] = 1j * params.mu * state[:, 0] + params.zeta * np.roll(state[:, 1], -1)
    return out


def evolve(state: np.ndarray, params: WalkParams, steps: int) -> np.ndarray:
    """Apply ``steps`` walk steps in real space."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    for _ in range(steps):
        state = step(state, params)
    return state


def momentum_blocks(params: WalkParams, power: int = 1) -> np.ndarray:
    """W(p)**power for every lattice momentum, shape (n_sites, 2, 2).

    Uses the closed form W**k = cos(kE) I + i sin(kE) (A/sin E) with
    A(p) = zeta sin(p) sigma_z + mu sigma_x, valid for any integer power.
    """
    p = params.momenta()
    cos_e = params.zeta * np.cos(p)
    sin_e = np.sqrt(np.maximum(0.0, 1.0 - cos_e**2))
    angle = power * np.arccos(np.clip(cos_e, -1.0, 1.0))
    a = (params.zeta * np.sin(p))[:, None, None] * _SIGMA_Z + params.mu * _SIGMA_X
    eye = np.eye(2, dtype=complex)
    safe = np.where(sin_e > 1e-300, sin_e, 1.0)
    unit = a / safe[:, None, None]
    blocks = np.cos(angle)[:, None, None] * eye + 1j * np.sin(angle)[:, None, None] * unit
    # sin E == 0 only where W(p) = +/- I exactly
    degenerate = sin_e == 0.0
    if np.any(degenerate):
        blocks[degenerate] = (np.sign(cos_e[degenerate]) ** abs(power))[:, None, None] * eye
    return blocks


def evolve_fourier(state: np.ndarray, params: WalkParams, steps: int) -> np.ndarray:
    """Same evolution as :func:`evolve`, done with one momentum-space multiply."""
    phi = np.fft.ifft(state, axis=0, norm="ortho")
    phi = np.einsum("pij,pj->pi", momentum_blocks(params, steps), phi)
    return np.fft.fft(phi, axis=0, norm="ortho")


def step_matrix(params: WalkParams) -> np.ndarray:
    """Dense 2N x 2N matrix of the step on site-major flattened states."""
    n = params.n_sites
    w = np.zeros((2 * n, 2 * n), dtype=complex)
    for m in range(n):
        w[2 * m, 2 * ((m - 1) % n)] = params.zeta  # plus from the left neighbour
        w[2 * m, 2 * m + 1] = 1j * params.mu
        w[2 * m + 1, 2 * m] = 1j * params.mu
        w[2 * m + 1, 2 * ((m + 1) % n) + 1] = params.zeta  # minus from the right
    return w


class DispersionTable(NamedTuple):
    momenta: np.ndarray
    energy: np.ndarray
    group_velocity: np.ndarray


def dispersion(params: WalkParams) -> DispersionTable:
    """Band E(p) = arccos(zeta cos p) and its group velocity on the lattice.

    The group velocity zeta*sin(p)/sin(E) is set to zero at the isolated
    momenta where sin E vanishes (massless band edges, where E has a kink).
    """
    p = np.sort(params.momenta())
    cos_e = params.zeta * np.cos(p)
    energy = np.arccos(np.clip(cos_e, -1.0, 1.0))
    sin_e = np.sin(energy)
    group = np.where(sin_e > 1e-14, params.zeta * np.sin(p) / np.where(sin_e > 1e-14, sin_e, 1.0), 0.0)
    return DispersionTable(p, energy, group)


def group_velocity_max(params: WalkParams) -> tuple[float, float]:
    """(analytic, measured) maximum signal speed of the band.

    The analytic value is zeta; the measured one comes from finite
    differences of E(p) across the lattice momentum grid.
    """
    table = dispersion(params)
    measured = float(np.max(np.abs(np.diff(table.energy) / np.diff(table.momenta))))
    return params.zeta, measured


def front_speed(params: WalkParams, steps: int, eps: float) -> float:
    """Propagation-front speed of an initially site-localized state.

    Runs ``steps`` walk steps from a delta state and returns (furthest site
    with probability above ``eps``) / steps.  The ring must be large enough
    that the support cannot wrap (n_sites > 2 steps + 1).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if steps < 1:
        raise ValueError("steps must be positive")
    if params.n_sites <= 2 * steps + 1:
        raise ValueError("ring too small: need n_sites > 2*steps + 1 to avoid wrap-around")
    center = params.n_sites // 2
    psi = evolve_fourier(delta_state(params), params, steps)
    prob = np.sum(np.abs(psi) ** 2, axis=1)
    displacement = np.arange(params.n_sites) - center
    occupied = np.abs(displacement[prob > eps])
    reach = int(occupied.max()) if occupied.size else 0
    return reach / steps


def _check_packet_stays_on_ring(params: WalkParams, p0: float, width: float, steps: int) -> None:
    """Reject runs whose packet would reach the ring boundary and wrap.

    Estimates the drift plus dispersive spread of a width-``width`` packet at
    momentum ``p0``: mean positions become meaningless once probability wraps
    past n_sites/2.
    """
    sigma_p = 1.0 / (2.0 * width)
    if params.mu == 0.0:
        reach = steps + 8.0 * width  # both chiralities move at the causal speed
    else:
        table = dispersion(params)
        i0 = int(np.argmin(np.abs(table.momenta - p0)))
        drift = abs(table.group_velocity[i0])
        slope = np.gradient(table.group_velocity, table.momenta)[i0]
        reach = (drift + 2.0 * abs(slope) * sigma_p) * steps + 8.0 * width
    if reach >= params.n_sites // 2:
        raise ValueError(
            f"packet may wrap: estimated reach {reach:.0f} sites exceeds half the "
            f"ring ({params.n_sites // 2}); enlarge n_sites or reduce steps"
        )


class ZitterResult(NamedTuple):
    frequency: float  # dominant oscillation frequency of <x>(t), rad/step
    amplitude: float  # spectral amplitude of that peak, sites
    resolution: float  # frequency bin width 2*pi/steps
    mean_positions: np.ndarray  # <x>(t) relative to the packet centre
    norms: np.ndarray  # state norm at each step (unitarity monitor)


def zitter_frequency(params: WalkParams, p0: float, width: float, steps: int) -> ZitterResult:
    """Dominant oscillation frequency of the packet's mean position.

    A packet with equal-magnitude chirality components in quadrature,
    (1, i)/sqrt(2), populates both bands equally, so its mean position
    oscillates at the band gap 2 E(p0) on top of the group drift.  (The
    in-phase pair (1, 1) is an eigenvector of the coupling and shows no
    oscillation.)  The frequency is read off the discrete Fourier transform
    of <x>(t); ``steps`` must cover at least two expected oscillation
    periods, otherwise the spectral resolution 2*pi/steps cannot isolate the
    peak.
    """
    if not math.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0}")
    if steps < 2:  # the linear detrend needs two samples
        raise ValueError(f"steps must be at least 2, got {steps}")
    expected_gap = 2.0 * math.acos(np.clip(params.zeta * math.cos(p0), -1.0, 1.0))
    if params.mu > 0.0 and steps * expected_gap < 4.0 * math.pi:
        raise ValueError(
            f"steps={steps} resolves frequencies only down to {2 * math.pi / steps:.3g} rad/step; "
            f"need at least {math.ceil(4 * math.pi / expected_gap)} steps for this packet"
        )
    psi = gaussian_packet(params, p0=p0, width=width, chirality=(1.0, 1j))  # rejects width <= 0 and nan
    _check_packet_stays_on_ring(params, p0, width, steps)
    center = params.n_sites // 2
    positions = np.arange(params.n_sites) - center
    blocks = momentum_blocks(params, 1)
    phi = np.fft.ifft(psi, axis=0, norm="ortho")
    means = np.empty(steps)
    norms = np.empty(steps)
    for t in range(steps):
        grid = np.fft.fft(phi, axis=0, norm="ortho")
        prob = np.sum(np.abs(grid) ** 2, axis=1)
        means[t] = float(np.dot(positions, prob))
        norms[t] = float(np.linalg.norm(grid))
        phi = np.einsum("pij,pj->pi", blocks, phi)
    detrended = means - np.polyval(np.polyfit(np.arange(steps), means, 1), np.arange(steps))
    spectrum = np.fft.rfft(detrended)
    spectrum[0] = 0.0
    peak = int(np.argmax(np.abs(spectrum)))
    return ZitterResult(
        frequency=2.0 * math.pi * peak / steps,
        amplitude=2.0 * float(np.abs(spectrum[peak])) / steps,
        resolution=2.0 * math.pi / steps,
        mean_positions=means,
        norms=norms,
    )


def effective_hamiltonian_check(params: WalkParams, k: int) -> float:
    """Largest deviation of the coarse-grained generator from its closed form.

    The generator at stride k is 1j*(W(p)**-k - W(p)**k)/(2k), built here by
    explicit 2x2 matrix products; it must equal
    sin(kE)/(k sin E) * (zeta sin p sigma_z + mu sigma_x) at every momentum.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    p = params.momenta()
    w = momentum_blocks(params, 1)
    forward = np.broadcast_to(np.eye(2, dtype=complex), w.shape).copy()
    for _ in range(k):
        forward = np.einsum("pij,pjk->pik", w, forward)
    backward = np.conj(np.swapaxes(forward, 1, 2))  # W**-k = (W**k)^dagger
    generator = 1j * (backward - forward) / (2.0 * k)

    cos_e = params.zeta * np.cos(p)
    energy = np.arccos(np.clip(cos_e, -1.0, 1.0))
    sin_e = np.sin(energy)
    ratio = np.where(sin_e > 1e-14, np.sin(k * energy) / (k * np.where(sin_e > 1e-14, sin_e, 1.0)), 1.0)
    a = (params.zeta * np.sin(p))[:, None, None] * _SIGMA_Z + params.mu * _SIGMA_X
    target = ratio[:, None, None] * a
    return float(np.max(np.abs(generator - target)))


def generator_small_limit_deviation(mu: float, p: float, k: int = 2) -> float:
    """Deviation of the stride-k generator from the leading form zeta*p*sigma_z + mu*sigma_x."""
    zeta = math.sqrt(1.0 - mu * mu)
    w = np.array([[zeta * np.exp(1j * p), 1j * mu], [1j * mu, zeta * np.exp(-1j * p)]])
    forward = np.linalg.matrix_power(w, k)
    generator = 1j * (forward.conj().T - forward) / (2.0 * k)
    target = zeta * p * _SIGMA_Z + mu * _SIGMA_X
    return float(np.max(np.abs(generator - target)))


def generator_small_limit_slope() -> float:
    """Log-log convergence order of the stride-2 generator toward the leading form.

    Samples the deviation along (p, mu) = s * (1, 1)/sqrt(2) and fits the
    slope of log(deviation) against log(s); a cubic remainder gives ~3.
    """
    s = np.geomspace(5e-3, 0.14, 12)
    devs = np.array([generator_small_limit_deviation(x / math.sqrt(2.0), x / math.sqrt(2.0)) for x in s])
    slope, _ = np.polyfit(np.log(s), np.log(devs), 1)
    return float(slope)
