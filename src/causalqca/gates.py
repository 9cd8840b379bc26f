"""Bipartite-gate circuits for linear field evolution, with a Fock-space oracle.

Two gate families tile the chain: ``A`` gates couple the minus mode of site n
with the plus mode of site n+1, ``B`` gates couple the two modes of one site.
A forward evolution step is one B row followed by one A row.  Because every
gate mixes field operators linearly, the whole step is captured by an M x M
transfer matrix T with ``U phi_i U^dag = sum_j T[i, j] phi_j`` over the
site-major mode ordering (site 0 plus, site 0 minus, site 1 plus, ...).

The difference between the step and its inverse read off the plus rows is the
discrete Dirac combination

    T - T^dag  ~  zeta * (delta_{n+1} - delta_{n-1})  - 2j * mu * (minus mode)

and row normalization of the unitary T bounds the flow speed by
``zeta <= sqrt(1 - mu**2)``: the refraction-index bound that
:func:`solve_gates` decides in closed form.  In momentum space the combination is
a trigonometric polynomial of degree one, C(p) = C0 + Cp e^{ip} - Cp^dag e^{-ip},
so the fits behind an infeasible verdict run on those three Fourier coefficients;
the defect they report is still the largest deviation over the 16 lattice
momenta.  Each fit is one MINPACK lmder call through ``leastsq``.

Everything is cross-checked against an exact Fock representation on short
chains, in numpy alone: every gate keeps the particle number, so the step is
built sector by sector from each gate's closed form 1, T^dag, conj(det T) on
0, 1 and 2 particles of its two adjacent wires, and the transfer action and
anticommutation are verified brute force, all modes at once, with the
Jordan-Wigner modes as signed gathers.  Each block's closed form is checked
against the product ``prod_k (1 + (e^{i d_k} - 1) b_k^dag b_k)`` over its normal
modes b_k, split out by numpy's eigh.  Only a solve past the bound loads scipy,
``scipy.optimize``; ``least_squares``, ``expm`` and ``logm`` are stand-ins
only perfbench/tracer.py calls.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .walk import dirac_form

PLUS = "+"
MINUS = "-"


def _scipy(module: str, name: str):
    """``module.name`` as a module-level function that imports ``module`` on its first call."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module), name)(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call


leastsq, least_squares = _scipy("scipy.optimize", "leastsq"), _scipy("scipy.optimize", "least_squares")
expm, logm = _scipy("scipy.linalg", "expm"), _scipy("scipy.linalg", "logm")


def mode_index(site: int, chirality: str, n_sites: int) -> int:
    """Global mode ordering: site-major, plus before minus."""
    if chirality not in (PLUS, MINUS):
        raise ValueError(f"chirality must be '+' or '-', got {chirality!r}")
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    return 2 * site + (0 if chirality == PLUS else 1)


class FockRep:
    """Jordan-Wigner tables on a short chain (n_sites <= 5), its basis split by particle number.

    Basis state c holds mode m when c has bit ``bits[m]`` set, mode 0 on the highest bit.  phi_m
    sends c to c ^ bits[m] when c holds m, and phi_m^dag does so when it does not, both times with
    the string sign ``signs[m, c]``: -1 to the number of modes before m that c holds.  Sector k
    lists the states holding k particles, ``local[c]`` is c's place in its sector, and entry
    [state, m] of ``lowering[k - 1]`` (phi from sector k into k - 1, over the states of k - 1) and
    of ``raising[k - 1]`` (phi^dag from k - 1 into k, over the states of k) is the place of the
    state with mode m flipped and its sign, or 0 and 0.  ``wire_rows[w]``: the states whose wires
    (w, w + 1) read 10 above their 01 partners, and those reading 11.
    """

    def __init__(self, n_sites: int):
        if not 1 <= n_sites <= 5:
            raise ValueError(f"n_sites must lie in [1, 5], got {n_sites}")
        self.n_sites = n_sites
        self.n_modes = n_modes = 2 * n_sites
        self.dim = 2**n_modes
        states = np.arange(self.dim)
        self.bits = 1 << np.arange(n_modes - 1, -1, -1)
        self.held = (states & self.bits[:, None]) != 0
        self.signs = 1.0 - 2.0 * ((np.cumsum(self.held, axis=0) - self.held) % 2)
        count = self.held.sum(axis=0)
        self.sectors = [np.flatnonzero(count == k) for k in range(n_modes + 1)]
        self.local = np.cumsum(count[:, None] == np.arange(n_modes + 1), axis=0)[states, count] - 1
        place, sign, held = self.local[states[:, None] ^ self.bits], self.signs.T, self.held.T  # [state, mode]
        self.lowering = [(np.where(held[s], 0, place[s]), np.where(held[s], 0, sign[s])) for s in self.sectors[:-1]]
        self.raising = [(np.where(held[s], place[s], 0), np.where(held[s], sign[s], 0)) for s in self.sectors[1:]]
        self.wire_rows = []
        for shift in range(n_modes - 2, -1, -1):
            ten = np.flatnonzero(states >> shift & 3 == 2)
            self.wire_rows.append((np.stack([ten, ten ^ 3 << shift]), np.flatnonzero(states >> shift & 3 == 3)))

    def mode(self, m: int) -> np.ndarray:
        """phi_m as a dense matrix."""
        out, states = np.zeros((self.dim, self.dim), dtype=complex), np.arange(self.dim)
        out[states ^ self.bits[m], states] = self.signs[m] * self.held[m]  # 0 in columns without mode m
        return out

    def anticommutation_defect(self) -> float:
        """Largest deviation from {phi_i, phi_j^dag} = delta_ij, {phi_i, phi_j} = 0, all pairs at once.

        Either product of phi_i or phi_i^dag with phi_j or phi_j^dag sends basis state c to
        c ^ bits[i] ^ bits[j], so each anticommutator is one signed coefficient per (i, j, c).
        """
        flip = np.arange(self.dim) ^ self.bits[:, None]
        low, up = self.signs * self.held, self.signs * ~self.held  # phi_m and phi_m^dag at each state
        # entry [i, j, c] of phi_i phi_j^dag, phi_j^dag phi_i, phi_i phi_j
        mixed = low[:, flip] * up + np.swapaxes(up[:, flip] * low, 0, 1) - np.eye(self.n_modes)[:, :, None]
        plain = low[:, flip] * low
        return float(max(np.abs(mixed).max(), np.abs(plain + np.swapaxes(plain, 0, 1)).max()))


fock_rep = functools.cache(FockRep)  # one shared FockRep per chain length, built on first use


@dataclass(frozen=True)
class GateSpec:
    """One bipartite gate: its family, location, and single-particle block.

    ``unitary`` is the 2x2 matrix acting on the gate's ordered mode pair
    (first, second): first -> u[0,0]*first + u[0,1]*second, and so on.  A
    gates pair (site, minus) with (site+1, plus); B gates pair (site, plus)
    with (site, minus).
    """

    kind: str
    site: int
    unitary: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self):
        if self.kind not in ("A", "B"):
            raise ValueError("kind must be 'A' or 'B'")
        u = self.matrix()
        if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-14:
            raise ValueError("gate block must be unitary to 1e-14")

    def matrix(self) -> np.ndarray:
        return np.asarray(self.unitary, dtype=complex).reshape(2, 2)

    def mode_pair(self, n_sites: int, periodic: bool) -> tuple[int, int]:
        if self.kind == "B":
            return mode_index(self.site, PLUS, n_sites), mode_index(self.site, MINUS, n_sites)
        partner = self.site + 1
        if partner >= n_sites:
            if not periodic:
                raise ValueError(f"A gate at site {self.site} needs a right neighbour")
            partner = 0
        return mode_index(self.site, MINUS, n_sites), mode_index(partner, PLUS, n_sites)


def gate_spec(kind: str, site: int, unitary: np.ndarray) -> GateSpec:
    u = np.asarray(unitary, dtype=complex)
    return GateSpec(kind, site, tuple(tuple(row) for row in u))


SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def canonical_gates(zeta: float, mu: float) -> tuple[GateSpec, GateSpec]:
    """The closed-form gate pair realizing the zigzag step at coupling mu.

    ``A = [[-1j*mu, zeta], [zeta, -1j*mu]]`` and ``B = swap``; the pair is
    unitary exactly when zeta**2 + mu**2 = 1 (the bound-saturating family).
    """
    a = np.array([[-1j * mu, zeta], [zeta, -1j * mu]])
    return gate_spec("A", 0, a), gate_spec("B", 0, SWAP2)


def tile_gates(gate_a: GateSpec, gate_b: GateSpec, n_sites: int, periodic: bool = True) -> list[GateSpec]:
    """Translation-invariant tiling of one (A, B) pair over the chain."""
    last_a = n_sites if periodic else n_sites - 1
    tiles = [gate_spec("A", n, gate_a.matrix()) for n in range(last_a)]
    tiles += [gate_spec("B", n, gate_b.matrix()) for n in range(n_sites)]
    return tiles


def _row_transfer(gates: Sequence[GateSpec], n_sites: int, periodic: bool) -> np.ndarray:
    t = np.eye(2 * n_sites, dtype=complex)
    used: set[int] = set()
    for g in gates:
        i, j = g.mode_pair(n_sites, periodic)
        if i in used or j in used:
            raise ValueError(f"overlapping gates in one row at modes ({i}, {j})")
        used.update((i, j))
        u = g.matrix()
        t[i, i], t[i, j] = u[0, 0], u[0, 1]
        t[j, i], t[j, j] = u[1, 0], u[1, 1]
    return t


def compose_row(gates: Iterable[GateSpec], n_sites: int, periodic: bool = True) -> np.ndarray:
    """Transfer matrix T of one two-row step (B row first, then A row).

    U phi U^dag = T phi for the step unitary U = A_row B_row; the inverse
    evolution's transfer is T^dag, whose plus rows carry the amplitude at
    site n-1.
    """
    gates = list(gates)
    a_row = [g for g in gates if g.kind == "A"]
    b_row = [g for g in gates if g.kind == "B"]
    # conjugation by U = A_row B_row composes as T_B @ T_A
    return _row_transfer(b_row, n_sites, periodic) @ _row_transfer(a_row, n_sites, periodic)


def check_fb_combination(t: np.ndarray, zeta: float, mu: float) -> float:
    """Largest plus-row defect of the forward-minus-backward combination.

    The combination C = T - T^dag of a periodic row must place zeta at
    site+1, -zeta at site-1 and -2j*mu on the site's minus mode, with every
    other entry cancelling.  Returns the maximum l2 row deviation over all sites.
    """
    n_sites = t.shape[0] // 2
    combo = t - t.conj().T
    coupling = -2j * mu
    worst = 0.0
    for n in range(n_sites):
        target = np.zeros(2 * n_sites, dtype=complex)
        target[mode_index((n + 1) % n_sites, PLUS, n_sites)] = zeta
        target[mode_index((n - 1) % n_sites, PLUS, n_sites)] = -zeta
        target[mode_index(n, MINUS, n_sites)] = coupling
        dev = np.linalg.norm(combo[mode_index(n, PLUS, n_sites)] - target)
        worst = max(worst, float(dev))
    return worst


class RefractionBound(NamedTuple):
    zeta_max: float  # largest flow speed compatible with unitarity
    n_min: float  # smallest vacuum refraction index, 1/zeta_max


def refraction_bound(mu: float) -> RefractionBound:
    """Speed and index bound at coupling mu = 2a/lambda.

    Row normalization gives zeta_max = sqrt(1 - mu**2) and hence a refraction
    index of at least 1/zeta_max.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]: stronger coupling has no unitary row")
    zeta_max = math.sqrt(1.0 - mu * mu)
    n_min = math.inf if zeta_max == 0.0 else 1.0 / zeta_max
    return RefractionBound(zeta_max=zeta_max, n_min=n_min)


# ---------------------------------------------------------------------------
# feasibility search


def _u2_entries(params: Sequence[float]) -> tuple[complex, complex, complex, complex]:
    """(u00, u01, u10, u11) of e^{i phase} [[c e^{i alpha}, s e^{i beta}], [-s e^{-i beta}, c e^{-i alpha}]]"""
    phase, theta, alpha, beta = params
    c, s = math.cos(theta), math.sin(theta)
    ep, ea, eb = cmath.exp(1j * phase), cmath.exp(1j * alpha), cmath.exp(1j * beta)
    return ep * (c * ea), ep * (s * eb), ep * (-s * eb.conjugate()), ep * (c * ea.conjugate())


def _u2(params: Sequence[float]) -> np.ndarray:
    return np.array(_u2_entries(params)).reshape(2, 2)


def _u2_derivatives(params: Sequence[float], entries: Sequence[complex]) -> tuple[tuple[complex, ...], ...]:
    """d _u2_entries / d(phase, theta, alpha, beta) from the entries at params: one tuple per parameter."""
    phase, theta, alpha, beta = params
    u00, u01, u10, u11 = entries
    return ((1j * u00, 1j * u01, 1j * u10, 1j * u11),
            _u2_entries((phase, theta + math.pi / 2, alpha, beta)),  # (cos, sin) -> (-sin, cos)
            (1j * u00, 0j, 0j, -1j * u11),
            (0j, 1j * u01, -1j * u10, 0j))


def _a_row(a: np.ndarray, momenta: np.ndarray) -> np.ndarray:
    """The A row in the momentum basis, [[a22, a21 e^{ip}], [a12 e^{-ip}, a11]], shape (len(p), 2, 2)."""
    phase = np.exp(1j * momenta)
    row = np.empty((len(momenta), 2, 2), dtype=complex)
    row[:, 0, 0] = a[1, 1]
    row[:, 0, 1] = a[1, 0] * phase
    row[:, 1, 0] = a[0, 1] / phase
    row[:, 1, 1] = a[0, 0]
    return row


def _momentum_combination(a: np.ndarray, b: np.ndarray, momenta: np.ndarray) -> np.ndarray:
    """C(p) = T(p) - T(p)^dag for the tiled two-row step, shape (len(p), 2, 2)."""
    t = b @ _a_row(a, momenta)
    return t - np.conj(np.swapaxes(t, -1, -2))


_W = 4.0 * math.sqrt(2.0)  # sqrt(32): weight of an off-diagonal entry of C0 and of each entry of Cp
_ZETA_CAP = math.sqrt(np.finfo(float).max) / (2.0 * _W)  # two residual entries ~ _W*zeta square-sum to max/2


def _coefficients(a: Sequence[complex], b: Sequence[complex]) -> list[float]:
    """C0 and Cp of entry tuples a and b as _residual weighs them; real-bilinear in (a, b)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    c0_01 = b01 * a00 - (b10 * a11).conjugate()
    cp_00, cp_01, cp_11 = -(b01 * a01).conjugate(), b00 * a10 - (b11 * a01).conjugate(), b10 * a10
    return [8.0 * (b00 * a11).imag, 8.0 * (b11 * a00).imag, _W * c0_01.real, _W * c0_01.imag, _W * cp_00.real,
            _W * cp_00.imag, _W * cp_01.real, _W * cp_01.imag, _W * cp_11.real, _W * cp_11.imag]


def _residual(x: np.ndarray, zeta: float, mu: float) -> np.ndarray:
    """10 reals whose sum of squares is that of C(p) - target(p) over the 16 _MOMENTA.

    C(p) = C0 + Cp e^{ip} - Cp^dag e^{-ip} with C0 anti-Hermitian and Cp[1, 0] = 0,
    and the target -2i (zeta sin p sigma_z + mu sigma_x) has the coefficients
    -2i mu sigma_x and -zeta sigma_z.  On the 16 momenta 1 and e^{+-ip} are
    orthogonal, so the sum is 16 |R0|^2 + 32 |Rp|^2 with R0 = C0 + 2i mu sigma_x
    and Rp = Cp + zeta sigma_z, and the fit sees the lattice's J^T J and J^T r.
    """
    x = x.tolist()
    r = _coefficients(_u2_entries(x[:4]), _u2_entries(x[4:]))
    # R0[0, 1] gains 2i mu, Rp[0, 0] gains zeta and Rp[1, 1] loses it
    r[3] += _W * 2.0 * mu
    r[4] += _W * zeta
    r[8] -= _W * zeta
    return np.array(r)


def _jacobian(x: np.ndarray, zeta: float, mu: float) -> np.ndarray:
    """d _residual / dx by columns, shape (8, 10): _coefficients(dA, B) for A's parameters, (A, dB) for B's."""
    x = x.tolist()
    a, b = _u2_entries(x[:4]), _u2_entries(x[4:])
    columns = [_coefficients(da, b) for da in _u2_derivatives(x[:4], a)]
    return np.array(columns + [_coefficients(a, db) for db in _u2_derivatives(x[4:], b)])


_TOL = 1e-8  # largest combination defect of a feasible pair
_MOMENTA = 2.0 * np.pi * np.fft.fftfreq(16)  # the lattice momenta the defect is taken over


class GateSolution(NamedTuple):
    status: str  # 'feasible', 'infeasible' or 'undetermined'
    gate_a: GateSpec
    gate_b: GateSpec
    residual: float  # combination defect of the returned gates (their own form)
    achieved_zeta: float  # flow speed carried by the returned gates' rows
    requested_residual: float  # the returned gates' defect against the requested (zeta, mu) target
    restart_residuals: tuple[float, ...]  # each fit's defect; empty at or below the bound


def _defect(a: np.ndarray, b: np.ndarray, zeta: float, mu: float) -> float:
    """Largest entry of C(p) - target(p) over the 16 _MOMENTA for the blocks a and b."""
    target = -2j * dirac_form(zeta, mu, _MOMENTA)  # T - T^dag = W^dag - W
    return float(np.max(np.abs(_momentum_combination(a, b, _MOMENTA) - target)))


def _optimize_combination(
    zeta: float, mu: float, starts: Sequence[np.ndarray]
) -> tuple[np.ndarray, float, list[float]]:
    best_x, best, finals = None, math.inf, []
    for x0 in starts:
        # full_output keeps a stop at maxfev silent; diag=None scales by column norms
        x = leastsq(_residual, x0, args=(zeta, mu), Dfun=_jacobian, full_output=True, col_deriv=1,
                    ftol=1e-15, xtol=1e-15, gtol=1e-15, maxfev=800, factor=100, diag=None)[0]
        defect = _defect(_u2(x[:4]), _u2(x[4:]), zeta, mu)
        finals.append(defect)
        if defect < best:
            best_x, best = x, defect
    return best_x, best, finals


def _warm_start(z: float, m: float) -> np.ndarray:
    # exact parameters of the canonical saturating pair:
    # A = [[-1j m, z], [z, -1j m]] and B = swap
    a_params = (-math.pi / 2, math.atan2(z, m), 0.0, math.pi / 2)
    b_params = (math.pi / 2, math.pi / 2, 0.0, -math.pi / 2)
    return np.array(a_params + b_params)


def _fix_gauge(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rephase B's columns and A's rows into the gauge stated in solve_gates."""
    lead = b[np.argmax(np.abs(b), axis=0), [0, 1]]
    d = np.conj(lead) / np.abs(lead)
    return np.conj(d[::-1])[:, None] * a, b * d[None, :]


def solve_gates(zeta: float, mu: float, restarts: int = 20, seed: int = 0) -> GateSolution:
    """Decide whether one (A, B) gate pair transports at speed >= zeta with coupling mu.

    Exactly realizable speeds form the single point zeta_max = sqrt(1 - mu**2):
    any nearest-neighbour unitary step saturates the row-normalization bound
    (unitarity forces the Hermitian and anti-Hermitian parts of the transfer
    block to commute, which pins the speed).  So a request at or below the
    bound is 'feasible', granted with no fit by ``canonical_gates(zeta_max, mu)``:
    ``achieved_zeta`` is zeta_max, ``residual`` its defect over the 16 momenta
    (at most 1e-8), ``requested_residual`` 2 (zeta_max - zeta) by the Dirac form.

    A request above the bound is 'infeasible' by a floor every pair obeys
    (Bisio, D'Ariano and Tosini, arXiv:1212.2839).  U(2) blocks have
    |a01| = |a10| = s_a and |a00| = |a11| = c_a, and likewise for B, so
    |Cp[0,0]| = |Cp[1,1]| = s_a s_b =: x and |C0[0,1]| <= 2 s_b c_a =: 2y with
    x**2 + y**2 = s_b**2 <= 1.  The sum of squares over the 16 momenta is then
    S >= 64 (zeta - x)_+**2 + 128 (mu - y)_+**2 >= 64 (hypot(zeta, mu) - 1)**2
    over 64 complex entries, so every pair's defect is at least hypot(zeta, mu) - 1.

    A request past the bound is fitted to the literal (zeta, mu) target from
    its analytic warm starts plus ``restarts`` random points in U(2) x U(2), on
    the combination's three Fourier coefficients (whose weighted sum of
    squares equals the grid's), by MINPACK's lmder through ``leastsq`` with
    column-norm scaling, so the fits do not follow ``least_squares``'
    default ``x_scale``, which scipy 1.16 changed.  Each restart's defect is
    in ``restart_residuals``, the best is ``requested_residual``; both repeat
    bit for bit within a process, not always between processes.  A restart
    below the floor, taken one ulp low against the rounding of hypot, can
    only be a bug and makes the run 'undetermined'.

    An infeasible run returns its best fit in a fixed gauge.  The step is
    unchanged by B -> B diag(e^{i alpha}, e^{i beta}), A -> diag(e^{-i beta},
    e^{-i alpha}) A, so B's largest-magnitude entry in each column is made real
    and positive and A's rows are counter-rotated to match; the canonical pair
    is in that gauge already.
    """
    if not 0.0 < zeta < math.inf:
        raise ValueError(f"zeta must be finite and positive, got {zeta}")
    if zeta > _ZETA_CAP:
        raise ValueError(f"zeta must be at most {_ZETA_CAP} to keep the fit finite, got {zeta}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    if restarts < 0:
        raise ValueError(f"restarts must be at least 0, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    zeta_max = math.sqrt(1.0 - mu * mu)
    if zeta <= zeta_max:
        gate_a, gate_b = canonical_gates(zeta_max, mu)
        residual = _defect(gate_a.matrix(), gate_b.matrix(), zeta_max, mu)
        requested = residual if zeta == zeta_max else _defect(gate_a.matrix(), gate_b.matrix(), zeta, mu)
        status, finals = ("feasible" if residual <= _TOL else "undetermined"), []
    else:
        rng = np.random.default_rng(seed)
        starts = [_warm_start(math.sqrt(1 - mu**2), mu)]
        if zeta <= 1:
            starts.append(_warm_start(zeta, math.sqrt(max(0.0, 1 - zeta**2))))
        starts += [rng.uniform(-math.pi, math.pi, size=8) for _ in range(restarts)]
        best_x, requested, finals = _optimize_combination(zeta, mu, starts)
        a, b = _fix_gauge(_u2(best_x[:4]), _u2(best_x[4:]))
        gate_a, gate_b = gate_spec("A", 0, a), gate_spec("B", 0, b)
        residual = requested
        floor = math.nextafter(math.hypot(zeta, mu), 0.0) - 1.0  # one ulp low: hypot rounds
        status = "infeasible" if min(finals) >= floor else "undetermined"

    return GateSolution(
        status=status,
        gate_a=gate_a,
        gate_b=gate_b,
        residual=residual,
        # T_B T_A reaches (n, +) from (n+1, +) only through b[0,1] a[0,1] and
        # has no term the other way, so this is that entry of T - T^dag
        achieved_zeta=float((gate_b.unitary[0][1] * gate_a.unitary[0][1]).real),
        requested_residual=requested,
        restart_residuals=tuple(finals),
    )


# ---------------------------------------------------------------------------
# Fock-space oracle


def fock_gate_matrix(gate: GateSpec, rep: FockRep) -> np.ndarray:
    """Exact Fock-space unitary of one gate on ``rep``'s chain, as a dense matrix.

    With T the gate's single-particle block, G = exp(1j * phi^dag h phi) with
    h = 1j log T conjugates the pair's mode operators exactly by T and leaves
    the vacuum strictly invariant.  T is normal, so a unitary V with
    T = V diag(lam) V^dag diagonalizes h = V diag(-arg lam) V^dag, and no matrix
    logarithm is needed (scipy's logm fails on T = diag(1 + 1j*eps, 1 - 1j*eps)
    at subnormal eps).  V comes from numpy's eigh of the Hermitian
    K = (S - S^dag) / 2i with S = T / sqrt(det T): S has eigenvalues e^{+-i theta},
    which K keeps apart as +-sin theta unless S = +-1, where T is scalar and any
    orthonormal V will do.  The normal modes b_k = conj(V[0, k]) phi_i +
    conj(V[1, k]) phi_j have number operators that are commuting projectors, so
    G = prod_k (1 + (e^{-i arg lam_k} - 1) b_k^dag b_k) with no series.
    """
    i, j = gate.mode_pair(rep.n_sites, periodic=False)
    t = gate.matrix()
    s = t / np.sqrt(t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0])
    v = np.linalg.eigh((s - s.conj().T) / 2j)[1]
    lam = np.diag(v.conj().T @ t @ v)
    out = eye = np.eye(rep.dim, dtype=complex)
    for k in range(2):
        b = np.conj(v[0, k]) * rep.mode(i) + np.conj(v[1, k]) * rep.mode(j)
        out = out @ (eye + (np.exp(-1j * np.angle(lam[k])) - 1.0) * (b.conj().T @ b))
    return out


def _lone_gate(t: np.ndarray) -> np.ndarray:
    """Block T's gate on its two wires, basis |n_i n_j>: 1, T^dag on (|10>, |01>), conj(det T)."""
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0], out[3, 3] = 1.0, np.conj(t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0])
    out[np.ix_([2, 1], [2, 1])] = t.conj().T
    return out


def _sector_blocks(gates: Sequence[GateSpec], rep: FockRep) -> list[np.ndarray]:
    """The step U on ``rep``'s chain, B row first, as its blocks over the particle-number sectors.

    Each gate is its closed form on its wires (i, i + 1): rows reading 00 there stay, rows reading
    11 take conj(det T), and each 10 row mixes with its 01 partner by T^dag.
    """
    u = np.zeros((rep.dim, max(map(len, rep.sectors))), dtype=complex)  # row c: U's row c on c's sector
    u[np.arange(rep.dim), rep.local] = 1.0
    for g in sorted(gates, key=lambda gate: gate.kind != "B"):
        lone = _lone_gate(g.matrix())
        pairs, both = rep.wire_rows[g.mode_pair(rep.n_sites, periodic=False)[0]]  # open chain
        u[both] *= lone[3, 3]
        u[pairs] = np.tensordot(lone[np.ix_([2, 1], [2, 1])], u[pairs], 1)
    return [u[sector, :len(sector)] for sector in rep.sectors]


class FockCheck(NamedTuple):
    max_deviation: float
    transfer_deviation: float  # U phi_i - sum_j T_ij phi_j U against compose_row
    vacuum_phase: complex
    locality_deviation: float  # each block's Fock gate vs its closed form on two wires


def fock_consistency(gates: Sequence[GateSpec], n_sites: int) -> FockCheck:
    """Brute-force verification of the transfer-matrix picture on a short chain.

    The step U is the product of each gate's closed form on its two wires: 1 on
    |0>, T^dag on (phi_i^dag|0>, phi_j^dag|0>), conj(det T) on phi_i^dag phi_j^dag|0>.
    Every gate keeps the particle number, so U is built and checked block by block
    over the sectors.  Checks that (i) U phi_i = sum_j T_ij phi_j U for every mode,
    with T the compose_row transfer matrix, (ii) the vacuum, alone in its sector, is
    invariant up to a reported global phase, and (iii) each distinct block's
    fock_gate_matrix is that closed form on two wires, where the Jordan-Wigner
    strings cancel.  Blocks must be unitary; chains are open.
    """
    gates = list(gates)
    rep = fock_rep(n_sites)
    blocks = _sector_blocks(gates, rep)
    t = compose_row(gates, n_sites, periodic=False)
    transfer_dev = 0.0
    # from sector k to k - 1, all modes at once: column c of U phi_i is s_i(c) times U's column
    # c ^ bits[i], and row r of phi_j U is s_j(r) times U's row r | bits[j]
    for below, above, (low, low_sign), (up, up_sign) in zip(blocks, blocks[1:], rep.lowering, rep.raising):
        for rows in (slice(start, start + 32) for start in range(0, len(below), 32)):  # bounds memory at n = 5
            lhs = below[rows][:, up.T] * up_sign.T  # [r, i, c]
            rhs = t @ (low_sign[rows, :, None] * above[low[rows]])
            transfer_dev = max(transfer_dev, float(np.max(np.abs(lhs - rhs))))

    phase = complex(blocks[0][0, 0])  # the vacuum sector is 1 x 1: U|0> is exactly phase |0>
    distinct = {g.unitary: g.matrix() for g in gates}  # one locality check per distinct block
    locality_dev = max((float(np.max(np.abs(fock_gate_matrix(gate_spec("B", 0, block), fock_rep(1))
                                            - _lone_gate(block)))) for block in distinct.values()), default=0.0)

    overall = max(transfer_dev, abs(abs(phase) - 1.0), locality_dev)
    return FockCheck(overall, transfer_dev, phase, locality_dev)


def gates_to_json(gates: Sequence[GateSpec]) -> list[dict]:
    """Serialize gates as {kind, site, unitary: [[re, im] x 4]} (row-major)."""
    return [{"kind": g.kind, "site": g.site,
             "unitary": [[float(z.real), float(z.imag)] for z in g.matrix().ravel()]} for g in gates]
