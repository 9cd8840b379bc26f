import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import sparse
from scipy.linalg import block_diag, expm, logm

from causalqca import gates
from causalqca.gates import (
    SWAP2,
    _MOMENTA,
    FockRep,
    _jacobian,
    _lone_gate,
    _momentum_combination,
    _residual,
    _sector_blocks,
    _u2,
    canonical_gates,
    check_fb_combination,
    compose_row,
    fock_consistency,
    fock_gate_matrix,
    fock_rep,
    gate_spec,
    gates_to_json,
    mode_index,
    refraction_bound,
    solve_gates,
    tile_gates,
)
from causalqca.walk import dirac_form

SRC_DIR = str(Path(__file__).parent.parent / "src")


def _kron_chain(ops):
    """The Kronecker product of ops, first factor on the highest-order wire: the oracle of the index maps."""
    out = ops[0]
    for op in ops[1:]:
        out = sparse.kron(out, op, format="csr")
    return out


def _jw_kron(mode, n_modes):
    """Jordan-Wigner mode operator as a string of Pauli z factors ending in a lowering operator."""
    sz, lower = np.diag([1.0, -1.0]).astype(complex), np.array([[0, 1], [0, 0]], dtype=complex)
    return _kron_chain([sz] * mode + [lower] + [np.eye(2, dtype=complex)] * (n_modes - mode - 1))


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.nnz == b.nnz and (a != b).nnz == 0


def _sparse_modes(rep):
    """rep's mode operators as sparse matrices, read off its bit and sign tables."""
    modes = []
    for m in range(rep.n_modes):
        held = np.flatnonzero(rep.held[m])
        entries = (rep.signs[m, held].astype(complex), (held ^ rep.bits[m], held))
        modes.append(sparse.csr_matrix(entries, shape=(rep.dim,) * 2))
    return modes


def _sparse_gate_matrix(gate, modes, n_sites):
    """fock_gate_matrix's normal-mode product on sparse modes: the oracle on full chains."""
    i, j = gate.mode_pair(n_sites, periodic=False)
    t = gate.matrix()
    s = t / np.sqrt(t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0])
    v = np.linalg.eigh((s - s.conj().T) / 2j)[1]
    lam = np.diag(v.conj().T @ t @ v)
    eye = sparse.identity(modes[0].shape[0], dtype=complex, format="csr")
    out = eye
    for k in range(2):
        b = np.conj(v[0, k]) * modes[i] + np.conj(v[1, k]) * modes[j]
        out = out @ (eye + (np.exp(-1j * np.angle(lam[k])) - 1.0) * (b.getH() @ b))
    return out


def _embedded(gate, n_modes):
    """The gate's closed form on its wires (i, i + 1) of an open chain, the identity elsewhere, by the kron chain."""
    i, _ = gate.mode_pair(n_modes // 2, periodic=False)
    return _kron_chain([sparse.identity(2**i), _lone_gate(gate.matrix()), sparse.identity(2 ** (n_modes - i - 2))])


def _random_gates(rng, n_sites):
    """Random U(2) blocks on every B then every A tile of an open chain."""
    gates = []
    for kind, count in (("B", n_sites), ("A", n_sites - 1)):
        for site in range(count):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            gates.append(gate_spec(kind, site, q))
    return gates


def test_mode_ordering():
    assert mode_index(0, "+", 4) == 0
    assert mode_index(0, "-", 4) == 1
    assert mode_index(2, "+", 4) == 4
    with pytest.raises(ValueError):
        mode_index(4, "+", 4)
    with pytest.raises(ValueError):
        mode_index(0, "x", 4)


def test_single_site_operator_is_lowering_tensor_identity():
    expected = np.kron(np.array([[0, 1], [0, 0]]), np.eye(2))
    assert np.array_equal(FockRep(1).mode(mode_index(0, "+", 1)), expected)


def test_operators_are_nilpotent():
    for n_sites in (1, 2, 3):
        rep = FockRep(n_sites)
        for site in range(n_sites):
            for chi in "+-":
                phi = rep.mode(mode_index(site, chi, n_sites))
                assert np.max(np.abs(phi @ phi)) == 0.0


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_modes_match_the_pauli_string_kron_chain(n_sites):
    # the sign table, the dense modes and each sector's signed gathers against the kron chain
    rep = FockRep(n_sites)
    chains = [_jw_kron(mode, rep.n_modes) for mode in range(rep.n_modes)]
    for mode, (op, chain) in enumerate(zip(_sparse_modes(rep), chains)):
        assert _bitwise_equal(op, chain)
        if n_sites <= 3:  # dense dim x dim
            assert np.array_equal(rep.mode(mode), chain.toarray())
    for k, ((low, low_sign), (up, up_sign)) in enumerate(zip(rep.lowering, rep.raising), start=1):
        below, above = rep.sectors[k - 1], rep.sectors[k]
        for mode, chain in enumerate(chains):
            # phi from sector k into k - 1 gathers over k - 1; phi^dag from k - 1 into k over k
            phi = np.zeros((len(below), len(above)))
            phi[np.arange(len(below)), low[:, mode]] = low_sign[:, mode]
            dag = np.zeros((len(above), len(below)))
            dag[np.arange(len(above)), up[:, mode]] = up_sign[:, mode]
            block = chain[below][:, above].toarray()
            assert np.array_equal(phi, block) and np.array_equal(dag, block.T)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_anticommutation_relations(n_sites):
    assert FockRep(n_sites).anticommutation_defect() == 0.0


def _pairwise_anticommutation_defect(rep):
    """The relations pair by pair, the reference of the stacked products."""
    eye = sparse.identity(rep.dim, dtype=complex, format="csr")
    worst = 0.0
    modes = _sparse_modes(rep)
    for i, a in enumerate(modes):
        for j, b in enumerate(modes):
            mixed = a @ b.getH() + b.getH() @ a - (eye if i == j else 0.0)
            worst = max(worst, abs(mixed).max(), abs(a @ b + b @ a).max())
    return worst


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_anticommutation_defect_sees_a_mode_without_its_string_signs(n_sites):
    rep = FockRep(n_sites)
    rep.signs[-1] = 1.0  # the last mode commutes with the modes before it instead
    assert rep.anticommutation_defect() == _pairwise_anticommutation_defect(rep) == 2.0


def test_fock_rep_is_shared_by_the_oracle():
    rep = fock_rep(3)
    assert fock_rep(3) is rep and rep.n_sites == 3
    fock_rep(1)  # the locality check's two-wire rep, whether or not an earlier test built it
    before = fock_rep.cache_info()
    fock_consistency(tile_gates(*canonical_gates(0.8, 0.6), 3, periodic=False), 3)
    after = fock_rep.cache_info()
    assert after.misses == before.misses and after.hits > before.hits  # the oracle reuses the reps


def test_scipy_calls_go_through_module_attributes(monkeypatch):
    # the fits past the bound call scipy through the module attribute gates.leastsq
    calls = []
    real = gates.leastsq

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gates, "leastsq", counting)
    assert solve_gates(0.9, 0.6, restarts=0).status == "infeasible"
    assert len(calls) == 2  # one per analytic warm start: zeta = 0.9 <= 1 adds the second


def test_expm_and_logm_resolve_without_importing_scipy():
    # the tracer wraps gates.expm and gates.logm after the CLI is imported, so
    # reading them must not load scipy; the first call does
    code = ("import sys; import numpy as np; from causalqca import gates; gates.expm, gates.logm; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'; "
            "assert np.array_equal(gates.expm(np.zeros((2, 2))), np.eye(2))")
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


def test_vacuum_is_annihilated():
    rep = FockRep(3)
    vacuum = np.eye(rep.dim)[0]  # no mode held
    for mode in range(rep.n_modes):
        assert np.linalg.norm(rep.mode(mode) @ vacuum) == 0.0


def test_compose_row_identity_and_swap():
    n = 4
    ident = tile_gates(gate_spec("A", 0, np.eye(2)), gate_spec("B", 0, np.eye(2)), n)
    assert np.array_equal(compose_row(ident, n), np.eye(2 * n))

    t = compose_row([gate_spec("A", 1, SWAP2)], n, periodic=False)
    i, j = mode_index(1, "-", n), mode_index(2, "+", n)
    expected = np.eye(2 * n)
    expected[[i, j]] = expected[[j, i]]
    assert np.array_equal(t, expected)


def test_compose_row_rejects_overlap():
    with pytest.raises(ValueError):
        compose_row([gate_spec("B", 1, SWAP2), gate_spec("B", 1, np.eye(2))], 4)


def test_compose_row_unitary_for_random_gates():
    rng = np.random.default_rng(5)
    for trial in range(4):
        gates = []
        for site in range(4):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            gates.append(gate_spec("B", site, q))
        for site in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            gates.append(gate_spec("A", site, q))
        t = compose_row(gates, 4, periodic=False)
        assert np.max(np.abs(t.conj().T @ t - np.eye(8))) < 1e-12


def test_compose_row_plus_row_entries():
    # the plus row of site n: stay-put at (n, +), shift at (n + 1, +), mixing at (n, -)
    n = 6
    stay, shift, minus = (mode_index(3, "+", n), mode_index(4, "+", n), mode_index(3, "-", n))
    ident = compose_row(tile_gates(gate_spec("A", 0, np.eye(2)), gate_spec("B", 0, np.eye(2)), n), n)
    assert (ident[stay, stay], ident[stay, shift], ident[stay, minus]) == (1, 0, 0)

    pure_shift = compose_row(tile_gates(*canonical_gates(1.0, 0.0), n), n)
    assert (pure_shift[stay, stay], pure_shift[stay, shift], pure_shift[stay, minus]) == (0, 1, 0)

    ga, gb = canonical_gates(0.8, 0.6)
    t = compose_row(tile_gates(ga, gb, n), n)
    assert t[stay, shift] == pytest.approx(0.8)
    assert t[stay, minus] == pytest.approx(-0.6j)
    # the inverse evolution's mixing differs by -2j*mu
    assert t[stay, minus] - np.conj(t[minus, stay]) == pytest.approx(-2j * 0.6)
    assert np.linalg.norm(t[stay]) ** 2 == pytest.approx(1.0, abs=1e-12)
    # backward rows shift the other way
    back = t.conj().T
    assert back[stay, mode_index(2, "+", n)] == pytest.approx(0.8)


ring_sizes = st.integers(2, 7)
u2_pair = st.lists(st.floats(-math.pi, math.pi), min_size=8, max_size=8)


def _tiled(a, b, n_sites, periodic=True):
    return tile_gates(gate_spec("A", 0, a), gate_spec("B", 0, b), n_sites, periodic)


@settings(max_examples=200, deadline=None)
@given(u2_pair, st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi), ring_sizes)
def test_gauge_rephasing_leaves_the_step_unchanged(x, alpha, beta, n_sites):
    # B -> B diag(e^{i alpha}, e^{i beta}), A -> diag(e^{-i beta}, e^{-i alpha}) A: the
    # freedom _fix_gauge removes; it holds to rounding, not bit for bit
    a, b = _u2(np.array(x[:4])), _u2(np.array(x[4:]))
    d = np.exp(1j * np.array([alpha, beta]))
    a2, b2 = np.conj(d[::-1])[:, None] * a, b * d[None, :]
    step, rephased = (compose_row(_tiled(*pair, n_sites), n_sites) for pair in ((a, b), (a2, b2)))
    assert np.max(np.abs(rephased - step)) <= 1e-15
    # on an open chain the end modes keep an uncancelled phase, so the step changes, but the oracle still agrees
    assert fock_consistency(_tiled(a2, b2, 3, periodic=False), 3).max_deviation <= 1e-12


@settings(max_examples=200, deadline=None)
@given(u2_pair, ring_sizes)
def test_a_tiled_ring_commutes_with_the_one_site_shift(x, n_sites):
    # rolling rows and columns by one site (two modes) is exact, so only the step's rounding shows
    t = compose_row(_tiled(_u2(np.array(x[:4])), _u2(np.array(x[4:])), n_sites), n_sites)
    assert np.max(np.abs(np.roll(t, (2, 2), axis=(0, 1)) - t)) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(u2_pair, ring_sizes)
def test_mirroring_a_tiled_ring_swaps_its_blocks_by_sigma_x(x, n_sites):
    # the mirror n -> -n with plus and minus swapped sends A's pair ((n, -), (n + 1, +)) to
    # ((-n - 1, -), (-n, +)) in reverse order, and B's likewise, so it maps the step of (A, B) to
    # that of (sx A sx, sx B sx); entries are at most 1 and round differently by position, so the
    # bound is 2 ulps of 1 (3000 random pairs on rings of 2-7 sites came within 1.6e-16)
    a, b = _u2(np.array(x[:4])), _u2(np.array(x[4:]))
    sites = (-np.arange(n_sites)) % n_sites
    mirror = np.ravel(np.stack([2 * sites + 1, 2 * sites], axis=1))  # mode (n, +/-) -> (-n, -/+)
    step = compose_row(_tiled(a, b, n_sites), n_sites)
    mirrored = compose_row(_tiled(a[::-1, ::-1], b[::-1, ::-1], n_sites), n_sites)  # sx M sx reverses both axes
    assert np.max(np.abs(mirrored[np.ix_(mirror, mirror)] - step)) <= 2 * np.finfo(float).eps


def test_fb_combination_trivial_and_canonical():
    n = 6
    eye = np.eye(2 * n, dtype=complex)
    assert check_fb_combination(eye, 0.0, 0.0) == 0.0

    ga, gb = canonical_gates(0.8, 0.6)
    t = compose_row(tile_gates(ga, gb, n), n)
    assert check_fb_combination(t, 0.8, 0.6) < 1e-12


def test_fb_combination_sensitive_to_perturbations():
    n = 6
    ga, gb = canonical_gates(0.8, 0.6)
    bumped = gate_spec("A", 0, ga.matrix() * np.exp(1e-3j))
    t = compose_row(tile_gates(bumped, gb, n), n)
    assert check_fb_combination(t, 0.8, 0.6) >= 1e-4


def test_solve_gates_massless():
    sol = solve_gates(1.0, 0.0, restarts=5, seed=0)
    assert sol.status == "feasible"
    assert sol.residual < 1e-10
    assert sol.achieved_zeta == pytest.approx(1.0, abs=1e-9)
    # both gates are swaps up to phases: no amplitude stays on its wire
    for g in (sol.gate_a, sol.gate_b):
        u = g.matrix()
        assert abs(u[0, 0]) < 1e-8 and abs(u[1, 1]) < 1e-8
        assert abs(u[0, 1]) == pytest.approx(1.0, abs=1e-8)


def test_solve_gates_at_and_over_the_bound():
    sol = solve_gates(0.8, 0.6, restarts=8, seed=3)
    assert sol.status == "feasible" and sol.residual <= 1e-8

    sol = solve_gates(0.9, 0.6, restarts=8, seed=3)  # bound is 0.8
    assert sol.status == "infeasible"
    assert min(sol.restart_residuals) >= 1e-4

    below = solve_gates(0.7, 0.6, restarts=8, seed=3)  # granted by the saturating pair
    assert below.status == "feasible"
    assert below.achieved_zeta >= 0.7
    assert below.requested_residual > 1e-8  # exact sub-bound row form does not exist


def test_solve_gates_just_past_the_bound_is_infeasible():
    # the smallest restart (~1.25e-6) is far below 1e-4 but above the proved
    # floor hypot(zeta, mu) - 1 (~6.4e-7), which certifies the request
    zeta = 0.8 * (1 + 1e-6)
    sol = solve_gates(zeta, 0.6, restarts=3, seed=0)
    assert sol.status == "infeasible"
    assert math.hypot(zeta, 0.6) - 1 <= min(sol.restart_residuals) < 1e-4


def test_solve_gates_fits_up_to_its_zeta_cap_without_overflow():
    # the residual holds two entries near sqrt(32) * zeta, so scipy's sum of
    # squares overflows (and warns) from zeta = sqrt(finfo.max / 2) / sqrt(32) on
    cap = gates._ZETA_CAP
    assert cap * 1.4 < math.sqrt(np.finfo(float).max / 2) / math.sqrt(32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_gates(0.99 * cap, 0.6, restarts=1, seed=0).status == "infeasible"
    with pytest.raises(ValueError) as info:
        solve_gates(1.01 * cap, 0.6, restarts=1, seed=0)
    assert f"zeta must be at most {cap} to keep the fit finite, got {1.01 * cap}" == str(info.value)


@pytest.mark.parametrize("mu", [0.02, 0.1, 0.14])
def test_solve_gates_a_few_ulps_past_the_bound_is_infeasible(mu):
    # the floor is a few ulps here, and hypot(zeta, mu) - 1 as rounded can lie
    # one ulp above the best restart
    zeta = refraction_bound(mu).zeta_max
    for _ in range(3):
        zeta = math.nextafter(zeta, 2.0)
    assert solve_gates(zeta, mu, restarts=3, seed=0).status == "infeasible"


def test_a_restart_below_the_proved_floor_leaves_the_run_undetermined(monkeypatch):
    # no pair's defect lies below hypot(zeta, mu) - 1, so a restart there is a bug
    zeta, mu = 0.8 * 1.001, 0.6
    floor = math.hypot(zeta, mu) - 1
    real, calls = gates._defect, []

    def injected(*args):
        calls.append(1)
        return floor / 2 if len(calls) == 5 else real(*args)

    monkeypatch.setattr(gates, "_defect", injected)
    sol = solve_gates(zeta, mu, restarts=8, seed=3)
    assert sol.status == "undetermined"
    assert 1e-8 < min(sol.restart_residuals) == floor / 2 < floor


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-math.pi, math.pi), min_size=8, max_size=8), st.floats(0, 1),
       st.floats(1 + 1e-6, 2, exclude_min=True))
def test_every_pair_past_the_bound_respects_the_proved_floor(x, mu, factor):
    zeta, x = factor * refraction_bound(mu).zeta_max, np.array(x)
    assert gates._defect(_u2(x[:4]), _u2(x[4:]), zeta, mu) >= math.hypot(zeta, mu) - 1


@pytest.mark.parametrize(
    "mu, seed, restarts",
    [(0.3, 1, 3), (0.6, 5, 3), (0.8, 7, 3), (0.3, 7, 20), (0.6, 1, 20), (0.8, 5, 20),
     # the ends of the coupling range: massless, nearly massless, nearly frozen
     (0.0, 1, 3), (1e-12, 5, 3), (0.95, 7, 3), (0.999, 1, 3)],
)
@pytest.mark.parametrize("below", [1.0, 0.9])
def test_solve_gates_returns_the_fixed_gauge(mu, seed, restarts, below):
    # at the bound and below it the answer is the saturating pair itself, bit for bit
    zeta_max = refraction_bound(mu).zeta_max
    sol = solve_gates(below * zeta_max, mu, restarts=restarts, seed=seed)
    assert sol.status == "feasible"
    assert (sol.gate_a, sol.gate_b) == canonical_gates(zeta_max, mu)


@pytest.mark.parametrize("zeta, mu", [(0.8, 0.6), (0.7, 0.6), (0.9, 0.6), (1.0, 0.0), (0.5, 0.95)])
def test_achieved_zeta_matches_the_real_space_transfer(zeta, mu):
    # feasible, below-bound and infeasible requests: the flow speed read off
    # the (n, +) <- (n + 1, +) entry of T - T^dag on a tiled ring
    sol = solve_gates(zeta, mu, restarts=3, seed=2)
    n = 6
    t = compose_row(tile_gates(sol.gate_a, sol.gate_b, n), n)
    row, col = mode_index(n // 2, "+", n), mode_index(n // 2 + 1, "+", n)
    assert abs(sol.achieved_zeta - (t - t.conj().T)[row, col].real) <= 1e-15


def _central_differences(f, x, h=1e-6):
    return np.stack([(f(x + e) - f(x - e)) / (2 * h) for e in h * np.eye(len(x))], axis=1)


def test_analytic_jacobian_matches_central_differences():
    points = np.random.default_rng(3).uniform(-np.pi, np.pi, size=(20, 8))
    # theta of A and of B at the edges of the chart: pure phase and pure swap
    points[0, [1, 5]] = 0.0
    points[1, [1, 5]] = math.pi / 2
    points[2, [1, 5]] = (0.0, math.pi / 2)
    for x in points:
        central = _central_differences(lambda y: _residual(y, 0.7, 0.5), x)
        assert np.max(np.abs(_jacobian(x, 0.7, 0.5).T - central)) <= 1e-6  # _jacobian gives columns


def _lattice_residual(x, zeta, mu):
    # the 128 real entries of C(p) - target(p) over the 16 lattice momenta
    diff = _momentum_combination(_u2(x[:4]), _u2(x[4:]), _MOMENTA) + 2j * dirac_form(zeta, mu, _MOMENTA)
    return np.concatenate([diff.real.ravel(), diff.imag.ravel()])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-math.pi, math.pi), min_size=8, max_size=8),
       st.sampled_from([(0.7, 0.5), (0.8, 0.6), (0.9, 0.6), (1.0, 0.0), (0.05, 1.0), (2.0, 0.3)]))
def test_fourier_residual_gives_the_lattice_normal_equations(x, target):
    # Levenberg-Marquardt sees the residual only through |r|^2, J^T J and J^T r
    x, (zeta, mu) = np.array(x), target
    r, jac = _residual(x, zeta, mu), _jacobian(x, zeta, mu).T
    lattice = _lattice_residual(x, zeta, mu)
    lattice_jac = _central_differences(lambda y: _lattice_residual(y, zeta, mu), x)
    assert r @ r == pytest.approx(lattice @ lattice, rel=1e-12)
    assert np.max(np.abs(jac.T @ jac - lattice_jac.T @ lattice_jac)) <= 1e-6
    assert np.max(np.abs(jac.T @ r - lattice_jac.T @ lattice)) <= 1e-6


@pytest.mark.parametrize("factor, status, calls", [(1 - 1e-6, "feasible", 0), (1.001, "infeasible", 22)])
def test_solve_gates_fits_each_start_once(monkeypatch, factor, status, calls):
    # a request past the bound fits its 22 starts against its literal target once
    # each; a below-bound one is granted by the canonical pair with no fit at all
    fits = []
    real = gates.leastsq

    def counted(*args, **kwargs):
        fits.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gates, "leastsq", counted)
    sol = solve_gates(factor * 0.8, 0.6, restarts=20, seed=0)
    assert sol.status == status
    assert len(fits) == len(sol.restart_residuals) == calls
    if status == "feasible":
        assert (sol.gate_a, sol.gate_b) == canonical_gates(0.8, 0.6)


def _no_fit(*args, **kwargs):
    raise AssertionError("a request at or below the bound runs no fit")


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1, exclude_min=True))
@example(0.6, 1.0).via("the golden default, on the bound")
@example(0.0, 1.0).via("massless")
def test_a_request_at_or_below_the_bound_is_granted_in_closed_form(mu, factor):
    zeta_max = refraction_bound(mu).zeta_max
    zeta = factor * zeta_max
    assume(zeta > 0.0)  # mu = 1 admits no positive speed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gates, "leastsq", _no_fit)
        sol = solve_gates(zeta, mu, restarts=20, seed=7)
    assert sol.status == "feasible" and sol.residual <= 1e-8
    assert (sol.gate_a, sol.gate_b) == canonical_gates(zeta_max, mu)
    assert sol.restart_residuals == ()
    # the grant's combination is -2i (zeta_max sin p sigma_z + mu sigma_x) by the Dirac
    # form, so against the literal target it is off by 2 (zeta_max - zeta) sin p,
    # largest at the grid momentum p = pi/2
    assert abs(sol.requested_residual - 2 * (zeta_max - zeta)) <= 1e-15


@pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
def test_solve_gates_repeats_within_a_process(mu):
    # an unrelated array alive during a seeded solve moves none of its restarts;
    # 8 and 10 are the sizes of the fit's parameters and residual
    zeta = 1.001 * math.sqrt(1 - mu * mu)
    first = solve_gates(zeta, mu, restarts=20, seed=5)
    for k in (0, 1, 3, 8, 10, 16):
        held = np.empty(k)
        assert solve_gates(zeta, mu, restarts=20, seed=5) == first, f"np.empty({k}) held"
        del held


def test_refraction_bound():
    assert refraction_bound(0.0) == (1.0, 1.0)
    bound = refraction_bound(0.6)
    assert bound.zeta_max == pytest.approx(0.8)
    assert bound.n_min == pytest.approx(1.25)
    frozen = refraction_bound(1.0)
    assert frozen.zeta_max == 0.0 and math.isinf(frozen.n_min)
    with pytest.raises(ValueError):
        refraction_bound(1.5)


def test_gate_spec_requires_unitary():
    with pytest.raises(ValueError):
        gate_spec("A", 0, np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        gate_spec("C", 0, np.eye(2))


def test_fock_identity_gates():
    tiles = tile_gates(gate_spec("A", 0, np.eye(2)), gate_spec("B", 0, np.eye(2)), 3, periodic=False)
    chk = fock_consistency(tiles, 3)
    assert chk.max_deviation == 0.0
    assert chk.vacuum_phase == 1.0


def test_fock_swap_gates_transpose_modes():
    gates = [gate_spec("A", s, SWAP2) for s in range(2)]
    chk = fock_consistency(gates, 3)
    assert chk.max_deviation < 1e-12
    t = compose_row(gates, 3, periodic=False)
    assert t[mode_index(0, "-", 3), mode_index(1, "+", 3)] == 1


def test_fock_oracle_validates_canonical_gates():
    tiles = tile_gates(*canonical_gates(0.8, 0.6), 4, periodic=False)
    chk = fock_consistency(tiles, 4)
    assert chk.max_deviation <= 1e-10
    assert abs(chk.vacuum_phase - 1.0) < 1e-12
    assert chk.locality_deviation < 1e-12


def test_fock_oracle_validates_random_gates():
    chk = fock_consistency(_random_gates(np.random.default_rng(11), 4), 4)
    assert chk.max_deviation <= 1e-10


# edge cases of the product formula: T with a repeated eigenvalue (the normal
# modes of h are then any basis), with an eigenvalue -1 (on the branch cut of
# logm), or with only imaginary entries
DEGENERATE_PAIRS = {
    "identity": (np.eye(2), np.eye(2)),
    "minus identity": (-np.eye(2), -np.eye(2)),
    "swap": (SWAP2, SWAP2),
    "minus swap": (-SWAP2, -SWAP2),
    "diag(1j, -1)": (np.diag([1j, -1.0]), np.diag([1j, -1.0])),
    "i swap": (1j * SWAP2, 1j * SWAP2),
    "canonical mu=0": tuple(g.matrix() for g in canonical_gates(1.0, 0.0)),
    "canonical mu=1": tuple(g.matrix() for g in canonical_gates(0.0, 1.0)),
}


def _near_degenerate(rng, splits):
    """V diag(e^{i phi}, e^{i (phi + delta)}) V^dag for a random U(2) V and phase phi per split delta."""
    blocks = []
    for delta in splits:
        v, phi = _u2(rng.uniform(-math.pi, math.pi, 4)), rng.uniform(-math.pi, math.pi)
        blocks.append(v @ np.diag(np.exp(1j * np.array([phi, phi + delta]))) @ v.conj().T)
    return tuple(blocks)


# scipy's series reference for the gates on one site's two wires: the edge
# cases above, a seeded sweep of U(2), and eigenvalues split by 1e-4 down to
# 3e-16, where the Hermitian part the oracle diagonalizes is tiny
SERIES_BLOCKS = {
    **DEGENERATE_PAIRS,
    "200 random": tuple(_u2(p) for p in np.random.default_rng(12).uniform(-math.pi, math.pi, (200, 4))),
    "near-degenerate": _near_degenerate(np.random.default_rng(13), np.geomspace(1e-4, 3e-16, 40)),
}
# a diagonal gate whose eigenvalues differ by a subnormal amount, on which
# scipy's logm raises "R is not upper triangular", so it has no series
SUBNORMAL_SPLIT = _u2(np.array([0.0, 0.0, 2.2250738585e-313, 0.0]))
ORACLE_PAIRS = {**DEGENERATE_PAIRS, "subnormal split": (SUBNORMAL_SPLIT, SUBNORMAL_SPLIT)}


@pytest.mark.parametrize("name", SERIES_BLOCKS)
def test_fock_gate_product_matches_series_on_degenerate_gates(name):
    lone = FockRep(1)
    ops = [lone.mode(m) for m in range(2)]
    for block in SERIES_BLOCKS[name]:
        h = 1j * logm(block)
        series = expm(1j * sum(h[r, c] * ops[r].conj().T @ ops[c] for r in range(2) for c in range(2)))
        product = fock_gate_matrix(gate_spec("B", 0, block), lone)
        assert np.max(np.abs(product - series)) <= 1e-14
        assert np.max(np.abs(_lone_gate(block) - series)) <= 1e-14


@pytest.mark.parametrize("name", ORACLE_PAIRS)
def test_fock_oracle_validates_degenerate_gates(name):
    a, b = ORACLE_PAIRS[name]
    tiles = tile_gates(gate_spec("A", 0, a), gate_spec("B", 0, b), 3, periodic=False)
    assert fock_consistency(tiles, 3).max_deviation <= 1e-12


u2_params = st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.lists(u2_params, min_size=5, max_size=5))
# a diagonal gate whose eigenvalues differ by a subnormal amount, on which
# scipy's logm raises "R is not upper triangular"
@example(2, [[0.0, 0.0, 0.0, 0.0]] * 2 + [[0.0, 0.0, 2.2250738585e-313, 0.0]] + [[0.0, 0.0, 0.0, 0.0]] * 2)
def test_fock_step_conserves_particle_number(n_sites, blocks):
    rep = FockRep(n_sites)
    tiles = [("B", s) for s in range(n_sites)] + [("A", s) for s in range(n_sites - 1)]
    step = np.eye(rep.dim, dtype=complex)
    for (kind, site), params in zip(tiles, blocks):  # B row applied first
        step = fock_gate_matrix(gate_spec(kind, site, _u2(np.array(params))), rep) @ step
    number = sum(rep.mode(m).conj().T @ rep.mode(m) for m in range(rep.n_modes))
    assert np.max(np.abs(step @ number - number @ step)) <= 1e-13


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
def test_sector_blocks_match_the_kron_embedded_gate_product(n_sites):
    # U as the sparse product of each gate's closed form embedded by the kron chain, B row first,
    # restricted to each particle-number sector; it has no entry between sectors
    rep = fock_rep(n_sites)
    order = np.concatenate(rep.sectors)
    for seed in range(3):
        chain = _random_gates(np.random.default_rng(seed), n_sites)
        step = sparse.identity(rep.dim, dtype=complex, format="csr")
        for g in sorted(chain, key=lambda gate: gate.kind != "B"):
            step = _embedded(g, rep.n_modes) @ step
        blocks = _sector_blocks(chain, rep)
        assert [b.shape[0] for b in blocks] == [math.comb(rep.n_modes, k) for k in range(rep.n_modes + 1)]
        assert np.max(np.abs(step[order][:, order].toarray() - block_diag(*blocks))) <= 1e-15


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
def test_locality_on_two_wires_equals_the_full_chain_check(n_sites):
    # the full-chain check: each gate's sparse normal-mode product on the chain's modes against
    # its closed form embedded by the kron chain; on adjacent wires the Jordan-Wigner strings
    # cancel, so it reads what the same product on two wires does, and the oracle's dense
    # two-wire product agrees with it to rounding
    rep = FockRep(n_sites)
    modes, pair_modes = _sparse_modes(rep), _sparse_modes(FockRep(1))
    tiles = tile_gates(*canonical_gates(0.8, 0.6), n_sites, periodic=False)
    for chain in (tiles, _random_gates(np.random.default_rng(n_sites), n_sites)):
        deviations = []
        for g in chain:
            full = abs(_sparse_gate_matrix(g, modes, n_sites) - _embedded(g, rep.n_modes)).max()
            pair, lone = gate_spec("B", 0, g.matrix()), _lone_gate(g.matrix())
            assert full == abs(_sparse_gate_matrix(pair, pair_modes, 1) - lone).max()
            deviations.append(float(np.max(np.abs(fock_gate_matrix(pair, fock_rep(1)) - lone))))
            assert abs(deviations[-1] - full) <= 1e-15
        assert fock_consistency(chain, n_sites).locality_deviation == max(deviations)


def test_transfer_check_sees_a_gate_with_the_wrong_one_particle_block(monkeypatch):
    real = gates._lone_gate
    monkeypatch.setattr(gates, "_lone_gate", lambda t: real(t.conj().T))  # T in place of T^dag
    assert fock_consistency(_random_gates(np.random.default_rng(42), 4), 4).transfer_deviation > 1.0


def test_gate_locality_of_single_gate():
    g = gate_spec("A", 1, canonical_gates(0.8, 0.6)[0].matrix())
    rep = FockRep(3)
    full = fock_gate_matrix(g, rep)
    # identity action on every basis state of the untouched wires
    i, j = g.mode_pair(3, periodic=False)
    for pauli in (np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, -1]])):
        for wire in range(rep.n_modes):
            if wire in (i, j):
                continue
            op = np.kron(
                np.eye(2**wire), np.kron(pauli, np.eye(2 ** (rep.n_modes - wire - 1)))
            )
            assert np.max(np.abs(full @ op - op @ full)) < 1e-12


def test_gates_json_round_trip():
    tiles = tile_gates(*canonical_gates(0.8, 0.6), 3, periodic=False)
    data = gates_to_json(tiles)
    assert data[0]["unitary"][1] == [0.8, 0.0]
    for gate, item in zip(tiles, data):
        assert (item["kind"], item["site"]) == (gate.kind, gate.site)
        restored = np.array([complex(re, im) for re, im in item["unitary"]]).reshape(2, 2)
        assert np.array_equal(restored, gate.matrix())
