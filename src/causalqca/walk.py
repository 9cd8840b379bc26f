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

Real-space steps run in one kernel on two ring buffers of chirality rows.
``step`` and ``evolve`` return site-major arrays in chirality-row memory order
(the transpose of a C-ordered (2, n_sites) copy) that share no memory with the
kernel or with each other.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
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
    width = float(width)  # Python floats overflow to inf quietly; numpy scalars warn
    # the exponent runs up to (n_sites // 2)**2 / spread, which must stay a finite
    # float; width * width gives inf or 0 where width**2 would raise OverflowError
    spread = 4.0 * width * width
    if not (width > 0 and 0.0 < spread < math.inf and (params.n_sites // 2) ** 2 / spread < math.inf):
        raise ValueError(f"width must be positive with a finite envelope exponent, got {width}")
    n = np.arange(params.n_sites)
    envelope = np.exp(-((n - params.n_sites // 2) ** 2) / spread + 1j * p0 * n)
    amp = np.asarray(chirality, dtype=complex)
    psi = envelope[:, None] * (amp / np.linalg.norm(amp))[None, :]
    return psi / np.linalg.norm(psi)


def random_state(params: WalkParams, rng: np.random.Generator) -> np.ndarray:
    """A normalized state with Gaussian complex amplitudes, drawn from ``rng``.

    No recipe uses it; it stays as the one shared draw of the walk benchmark
    (perfbench's ``walk_evolve``) and of the walk and acceptance tests.
    """
    psi = rng.standard_normal((params.n_sites, 2)) + 1j * rng.standard_normal((params.n_sites, 2))
    return psi / np.linalg.norm(psi)


def _steps(state: np.ndarray, params: WalkParams) -> Iterator[np.ndarray]:
    """Yield the states 1, 2, ... steps after ``state``: the one real-space step kernel.

    Two (2, n_sites + 2) ring buffers take the steps in turn, chirality rows in
    columns 1..n.  Column 0 of row 0 is a ghost of that row's last site and
    column n + 1 of row 1 a ghost of its first, so each shift reads one slice.
    Each yield is an (n_sites, 2) view that the step after next overwrites.
    """
    n = params.n_sites
    if state.shape != (n, 2):
        raise ValueError(f"state shape {state.shape} does not match n_sites={n}")
    zeta, coupling = params.zeta, 1j * params.mu
    moved = np.empty((2, n + 2), dtype=complex)
    from_left, from_right = moved[0, :n], moved[1, 2:]  # zeta psi+_{m-1} and zeta psi-_{m+1} at site m
    rings = []
    for buffer in np.zeros((2, 2, n + 2), dtype=complex):
        rows = buffer[:, 1:-1]
        rings.append((buffer, rows, rows[::-1], rows[0], rows[1], rows.T))
    rings[0][1][...] = state.T
    cur, nxt = rings
    while True:
        buffer, _, swapped, _, _, _ = cur
        buffer[0, 0], buffer[1, n + 1] = buffer[0, n], buffer[1, 1]  # the two shifts wrap around the ring
        np.multiply(zeta, buffer, out=moved)
        _, rows, _, plus, minus, out = nxt
        np.multiply(coupling, swapped, out=rows)
        plus += from_left
        minus += from_right
        yield out
        cur, nxt = nxt, cur


def step(state: np.ndarray, params: WalkParams) -> np.ndarray:
    """Apply the walk unitary once (norm preserved to machine precision): ``evolve(state, params, 1)``."""
    return evolve(state, params, 1)


def evolve(state: np.ndarray, params: WalkParams, steps: int) -> np.ndarray:
    """Apply ``steps`` walk steps in real space; zero steps return ``state`` itself.

    The result is ``out.T`` for a fresh C-ordered copy ``out`` of the last chirality rows.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    for state in itertools.islice(_steps(state, params), steps):
        pass
    return state if steps == 0 else state.T.copy().T


def dirac_form(zeta: float, mu: float, momenta: np.ndarray) -> np.ndarray:
    """The Dirac form A(p) = zeta sin(p) sigma_z + mu sigma_x, shape (len(p), 2, 2).

    The step block is W(p) = cos E + i A(p), so W(p) - W(p)^dagger = 2i A(p)
    (Bisio, D'Ariano and Tosini, arXiv:1212.2839).
    """
    return (zeta * np.sin(momenta))[:, None, None] * _SIGMA_Z + mu * _SIGMA_X


def _band(zeta: float, momenta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E(p) = acos(zeta cos p) and sin E = sqrt(1 - (zeta cos p)**2) per momentum, in scalar libm.

    No clip: zeta <= 1 keeps |zeta cos p| <= 1 in floats.  sin E is 0 only where W(p) = +/- I.
    """
    cos_e = [zeta * math.cos(p) for p in momenta]
    return np.array([math.acos(c) for c in cos_e]), np.array([math.sqrt(1.0 - c * c) for c in cos_e])


def momentum_blocks(params: WalkParams, power: int = 1) -> np.ndarray:
    """W(p)**power for every lattice momentum, shape (n_sites, 2, 2).

    Uses the closed form W**k = cos(kE) I + i sin(kE) (A/sin E) with A the
    :func:`dirac_form`, valid for any integer power.
    """
    p = params.momenta()
    energy, sin_e = _band(params.zeta, p)
    unit = 1j * dirac_form(params.zeta, params.mu, p) / np.where(sin_e > 0, sin_e, 1.0)[:, None, None]
    blocks = np.cos(power * energy)[:, None, None] * np.eye(2) + np.sin(power * energy)[:, None, None] * unit
    flat = sin_e == 0.0  # W(p) = I at E = 0 and -I at E = pi
    blocks[flat] = np.where(energy[flat] == 0.0, 1.0, (-1.0) ** power)[:, None, None] * np.eye(2)
    return blocks


def evolve_fourier(state: np.ndarray, params: WalkParams, steps: int) -> np.ndarray:
    """Same evolution as :func:`evolve`, done with one momentum-space multiply."""
    phi = np.fft.ifft(state, axis=0, norm="ortho")
    phi = np.einsum("pij,pj->pi", momentum_blocks(params, steps), phi)
    return np.fft.fft(phi, axis=0, norm="ortho")


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
    energy, sin_e = _band(params.zeta, p)
    group = [params.zeta * math.sin(q) / s if s > 0 else 0.0 for q, s in zip(p.tolist(), sin_e.tolist())]
    return DispersionTable(p, energy, np.array(group))


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
            f"packet may wrap: estimated reach {reach:.3g} sites exceeds half the "
            f"ring ({params.n_sites // 2}); enlarge n_sites or reduce steps"
        )


class ZitterResult(NamedTuple):
    frequency: float  # dominant oscillation frequency of <x>(t), rad/step
    amplitude: float  # spectral amplitude of that peak, sites
    resolution: float  # frequency bin width 2*pi/steps
    mean_positions: np.ndarray  # <x>(t) relative to the packet centre
    norms: np.ndarray  # state norm at each step (unitarity monitor)


def _line_fit(a: np.ndarray, b: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Least-squares slope, intercept and residuals of b against a, free of sample order and BLAS via math.fsum."""
    mx, my = math.fsum(a.tolist()) / len(a), math.fsum(b.tolist()) / len(b)
    dx, dy = a - mx, b - my
    spread = math.fsum((dx * dx).tolist())  # 0 also where every dx is below about 1e-162 and squares to 0
    if a.min() == a.max() or spread == 0.0:
        raise ValueError("degenerate sample set: the abscissae do not spread")
    slope = math.fsum((dx * dy).tolist()) / spread
    return slope, my - slope * mx, dy - slope * dx


def zitter_frequency(params: WalkParams, p0: float, width: float, steps: int) -> ZitterResult:
    """Dominant oscillation frequency of the packet's mean position.

    A packet with equal-magnitude chirality components in quadrature,
    (1, i)/sqrt(2), populates both bands equally, so its mean position
    oscillates at the band gap 2 E(p0) on top of the group drift.  (The
    in-phase pair (1, 1) is an eigenvector of the coupling and shows no
    oscillation.)  The frequency is read off the discrete Fourier transform
    of <x>(t), sampled once per step, so a gap g = 2 E(p0) above pi shows at
    its alias 2*pi - g: the peak lies at the folded gap min(g, 2*pi - g).
    ``steps`` must cover at least two periods of the folded gap, otherwise
    the spectral resolution 2*pi/steps cannot isolate the peak.
    """
    if not -math.pi <= p0 <= math.pi:  # the wrap guard looks p0 up on the lattice momenta
        raise ValueError(f"p0 must lie in [-pi, pi], got {p0}")
    if steps < 2:  # the linear detrend needs two samples
        raise ValueError(f"steps must be at least 2, got {steps}")
    if not width > 0:  # before the reach estimate and the packet, which divide by it
        raise ValueError(f"width must be positive, got {width}")
    gap = 2.0 * math.acos(params.zeta * math.cos(p0))
    folded = min(gap, 2.0 * math.pi - gap)  # the alias that one sample per step sees
    if params.zeta == 0.0:
        raise ValueError(f"mu={params.mu} has zeta = 0: the step swaps chiralities in place, so <x>(t) is constant")
    if params.mu > 0.0 and folded == 0.0:  # zeta * cos(p0) rounded to +-1: no step count resolves it
        how = "rounds" if gap == 0.0 else "aliases"
        raise ValueError(f"mu={params.mu} has a band gap at p0={p0} that {how} to zero")
    if params.mu > 0.0 and steps * folded < 4.0 * math.pi:
        raise ValueError(
            f"steps={steps} resolves frequencies only down to {2 * math.pi / steps:.3g} rad/step; "
            f"need at least {math.ceil(4 * math.pi / folded)} steps for this packet"
        )
    _check_packet_stays_on_ring(params, p0, width, steps)
    psi = gaussian_packet(params, p0=p0, width=width, chirality=(1.0, 1j))
    positions = np.arange(params.n_sites) - params.n_sites // 2
    means = np.empty(steps)
    norms = np.empty(steps)
    states = _steps(psi, params)
    for t in range(steps):
        prob = np.sum(np.abs(psi) ** 2, axis=1)
        means[t] = float(np.sum(positions * prob))
        norms[t] = math.sqrt(np.sum(prob))
        psi = next(states)
    spectrum = np.fft.rfft(_line_fit(np.arange(steps), means)[2])  # detrended: the line fit's residuals
    spectrum[0] = 0.0
    peak = int(np.argmax(np.abs(spectrum)))
    return ZitterResult(
        frequency=2.0 * math.pi * peak / steps,
        amplitude=2.0 * float(np.abs(spectrum[peak])) / steps,
        resolution=2.0 * math.pi / steps,
        mean_positions=means,
        norms=norms,
    )


def _stride_generator(w: np.ndarray, k: int) -> np.ndarray:
    """1j*(W**-k - W**k)/(2k) for unitary blocks W of shape (..., 2, 2), with W**-k = (W**k)^dagger."""
    forward = np.linalg.matrix_power(w, k)
    return 1j * (np.conj(np.swapaxes(forward, -1, -2)) - forward) / (2.0 * k)


def effective_hamiltonian_check(params: WalkParams, k: int) -> float:
    """Largest deviation of the coarse-grained generator from its closed form.

    The generator at stride k is 1j*(W(p)**-k - W(p)**k)/(2k), built here from
    repeated products of the step blocks; it must equal
    sin(kE)/(k sin E) * (zeta sin p sigma_z + mu sigma_x) at every momentum.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    p = params.momenta()
    generator = _stride_generator(momentum_blocks(params, 1), k)
    energy, sin_e = _band(params.zeta, p)
    ratio = np.where(sin_e > 0, np.sin(k * energy) / (k * np.where(sin_e > 0, sin_e, 1.0)), 1.0)
    target = ratio[:, None, None] * dirac_form(params.zeta, params.mu, p)
    return float(np.max(np.abs(generator - target)))


def generator_small_limit_deviation(mu: float, p: float, k: int = 2) -> float:
    """Deviation of the stride-k generator from the leading form zeta*p*sigma_z + mu*sigma_x."""
    zeta = math.sqrt(1.0 - mu * mu)
    w = np.array([[zeta * np.exp(1j * p), 1j * mu], [1j * mu, zeta * np.exp(-1j * p)]])
    generator = _stride_generator(w, k)
    target = zeta * p * _SIGMA_Z + mu * _SIGMA_X
    return float(np.max(np.abs(generator - target)))


def generator_small_limit_slope() -> float:
    """Log-log convergence order of the stride-2 generator toward the leading form.

    Samples the deviation along (p, mu) = s * (1, 1)/sqrt(2) and fits the
    slope of log(deviation) against log(s); a cubic remainder gives ~3.
    """
    s = np.geomspace(5e-3, 0.14, 12)
    devs = np.array([generator_small_limit_deviation(x / math.sqrt(2.0), x / math.sqrt(2.0)) for x in s])
    return _line_fit(np.log(s), np.log(devs))[0]
