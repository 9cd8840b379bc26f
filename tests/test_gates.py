import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import expm, logm

from causalqca import gates
from causalqca.gates import (
    SWAP2,
    FockRep,
    _jacobian,
    _residual,
    _u2,
    canonical_gates,
    check_fb_combination,
    compose_row,
    fock_consistency,
    fock_gate_matrix,
    gate_spec,
    gates_to_json,
    mode_index,
    refraction_bound,
    solve_gates,
    tile_gates,
)
from causalqca.walk import dirac_form


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
    assert np.array_equal(FockRep(1).modes[mode_index(0, "+", 1)].toarray(), expected)


def test_operators_are_nilpotent():
    for n_sites in (1, 2, 3):
        rep = FockRep(n_sites)
        for site in range(n_sites):
            for chi in "+-":
                phi = rep.modes[mode_index(site, chi, n_sites)].toarray()
                assert np.max(np.abs(phi @ phi)) == 0.0


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_anticommutation_relations(n_sites):
    assert FockRep(n_sites).anticommutation_defect() < 1e-12


def test_vacuum_is_annihilated():
    rep = FockRep(3)
    for phi in rep.modes:
        assert np.linalg.norm(phi @ rep.vacuum) == 0.0


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


def test_extract_row_amplitudes():
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


def test_fb_combination_trivial_and_canonical():
    n = 6
    eye = np.eye(2 * n, dtype=complex)
    assert check_fb_combination(eye, 0.0, 0.0) == 0.0

    ga, gb = canonical_gates(0.8, 0.6)
    t = compose_row(tile_gates(ga, gb, n), n)
    assert check_fb_combination(t, 0.8, 0.3) < 1e-12  # a/lambda = mu/2


def test_fb_combination_sensitive_to_perturbations():
    n = 6
    ga, gb = canonical_gates(0.8, 0.6)
    bumped = gate_spec("A", 0, ga.matrix() * np.exp(1e-3j))
    t = compose_row(tile_gates(bumped, gb, n), n)
    assert check_fb_combination(t, 0.8, 0.3) >= 1e-4


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


@pytest.mark.parametrize(
    "mu, seed, restarts",
    [(0.3, 1, 3), (0.6, 5, 3), (0.8, 7, 3), (0.3, 7, 20), (0.6, 1, 20), (0.8, 5, 20),
     # the ends of the coupling range: massless, nearly massless, nearly frozen
     (0.0, 1, 3), (1e-12, 5, 3), (0.95, 7, 3), (0.999, 1, 3)],
)
@pytest.mark.parametrize("below", [1.0, 0.9])
def test_solve_gates_returns_the_fixed_gauge(mu, seed, restarts, below):
    # at the bound and below it the answer is the saturating pair, and the
    # fixed gauge makes it the canonical one wherever the optimizer stopped
    zeta_max = math.sqrt(1 - mu**2)
    sol = solve_gates(below * zeta_max, mu, restarts=restarts, seed=seed)
    assert sol.status == "feasible"
    for got, want in zip((sol.gate_a, sol.gate_b), canonical_gates(zeta_max, mu)):
        assert np.max(np.abs(got.matrix() - want.matrix())) <= 1e-12


@pytest.mark.parametrize("zeta, mu", [(0.8, 0.6), (0.7, 0.6), (0.9, 0.6), (1.0, 0.0), (0.5, 0.95)])
def test_achieved_zeta_matches_the_real_space_transfer(zeta, mu):
    # feasible, below-bound and infeasible requests: the flow speed read off
    # the (n, +) <- (n + 1, +) entry of T - T^dag on a tiled ring
    sol = solve_gates(zeta, mu, restarts=3, seed=2)
    n = 6
    t = compose_row(tile_gates(sol.gate_a, sol.gate_b, n), n)
    row, col = mode_index(n // 2, "+", n), mode_index(n // 2 + 1, "+", n)
    assert abs(sol.achieved_zeta - (t - t.conj().T)[row, col].real) <= 1e-15


def test_analytic_jacobian_matches_central_differences():
    momenta = 2.0 * np.pi * np.fft.fftfreq(16)
    target = -2j * dirac_form(0.7, 0.5, momenta)
    points = np.random.default_rng(3).uniform(-np.pi, np.pi, size=(20, 8))
    # theta of A and of B at the edges of the chart: pure phase and pure swap
    points[0, [1, 5]] = 0.0
    points[1, [1, 5]] = math.pi / 2
    points[2, [1, 5]] = (0.0, math.pi / 2)
    h = 1e-6
    for x in points:
        central = np.stack([
            (_residual(x + e, momenta, target) - _residual(x - e, momenta, target)) / (2 * h)
            for e in h * np.eye(8)
        ], axis=1)
        assert np.max(np.abs(_jacobian(x, momenta, target) - central)) <= 1e-6


@pytest.mark.parametrize("factor, status, calls", [(1 - 1e-6, "feasible", 23), (1.001, "infeasible", 22)])
def test_saturating_pass_runs_from_the_warm_start(monkeypatch, factor, status, calls):
    # a below-bound request runs all 22 starts against its literal target,
    # then the saturating target from the exact warm start alone
    fits = []
    real = gates.least_squares

    def counted(*args, **kwargs):
        fits.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gates, "least_squares", counted)
    sol = solve_gates(factor * 0.8, 0.6, restarts=20, seed=0)
    assert sol.status == status
    assert len(fits) == calls


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
    rng = np.random.default_rng(11)
    gates = []
    for site in range(4):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        gates.append(gate_spec("B", site, q))
    for site in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        gates.append(gate_spec("A", site, q))
    chk = fock_consistency(gates, 4)
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


@pytest.mark.parametrize("name", DEGENERATE_PAIRS)
def test_fock_gate_product_matches_series_on_degenerate_gates(name):
    lone = FockRep(1)
    ops = [m.toarray() for m in lone.modes]
    for block in DEGENERATE_PAIRS[name]:
        h = 1j * logm(block)
        series = expm(1j * sum(h[r, c] * ops[r].conj().T @ ops[c] for r in range(2) for c in range(2)))
        product = fock_gate_matrix(gate_spec("B", 0, block), lone).toarray()
        assert np.max(np.abs(product - series)) <= 1e-14


@pytest.mark.parametrize("name", DEGENERATE_PAIRS)
def test_fock_oracle_validates_degenerate_gates(name):
    a, b = DEGENERATE_PAIRS[name]
    tiles = tile_gates(gate_spec("A", 0, a), gate_spec("B", 0, b), 3, periodic=False)
    assert fock_consistency(tiles, 3).max_deviation <= 1e-12


u2_params = st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.lists(u2_params, min_size=5, max_size=5))
def test_fock_step_conserves_particle_number(n_sites, blocks):
    rep = FockRep(n_sites)
    tiles = [("B", s) for s in range(n_sites)] + [("A", s) for s in range(n_sites - 1)]
    step = sparse.identity(rep.dim, dtype=complex, format="csr")
    for (kind, site), params in zip(tiles, blocks):  # B row applied first
        step = fock_gate_matrix(gate_spec(kind, site, _u2(np.array(params))), rep) @ step
    number = sum(a.getH() @ a for a in rep.modes)
    assert np.max(np.abs((step @ number - number @ step).toarray())) <= 1e-13


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
