import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalqca.lattice import Event, causally_precedes
from causalqca.observers import (
    ObserverSpec,
    Window,
    boost_map,
    default_scale,
    einstein_clock,
    fit_lorentz,
    foliation_leaf,
    radar_coordinates,
    velocity_addition,
)

REST = ObserverSpec("RL")

patterns = st.text(alphabet="RL", min_size=2, max_size=8).filter(
    lambda p: "R" in p and "L" in p
)


def test_observer_event_at_examples():
    assert REST.event_at(0) == Event(0, 0)
    assert REST.event_at(1) == Event(1, 0)
    assert REST.event_at(2) == Event(1, 1)
    assert REST.event_at(-1) == Event(0, -1)
    assert ObserverSpec("RRL").event_at(3) == Event(2, 1)


def test_pattern_validation():
    for bad in ("", "RR", "L", "RXL"):
        with pytest.raises(ValueError):
            ObserverSpec(bad)


@given(patterns, st.integers(min_value=-40, max_value=40))
def test_chain_steps_and_periodicity(pattern, n):
    spec = ObserverSpec(pattern)
    here, after = spec.event_at(n), spec.event_at(n + 1)
    assert (after.u - here.u, after.v - here.v) in ((1, 0), (0, 1))
    shifted = spec.event_at(n + spec.period)
    assert (shifted.u - here.u, shifted.v - here.v) == (spec.n_right, spec.n_left)


def test_radar_examples():
    # an event four sites to the right: bracketed by the last chain event
    # that can still signal it (index -3) and the first that hears back (+3)
    rc = radar_coordinates(REST, Event.from_tx(0, 4))
    assert (rc.t_obs, rc.x_obs) == (Fraction(0), Fraction(3))
    assert (rc.emission, rc.reception) == (-3, 3)
    rc = radar_coordinates(REST, Event.from_tx(0, -4))
    assert (rc.t_obs, rc.x_obs) == (Fraction(0), Fraction(-4))
    # chain events radar to themselves
    rc = radar_coordinates(REST, Event.from_tx(2, 0))
    assert (rc.t_obs, rc.x_obs) == (Fraction(2), Fraction(0))


@given(patterns, st.integers(min_value=-30, max_value=30))
def test_self_radar(pattern, n):
    spec = ObserverSpec(pattern)
    rc = radar_coordinates(spec, spec.event_at(n))
    assert rc.t_obs == n and rc.x_obs == 0


@given(patterns, st.integers(min_value=-12, max_value=12), st.integers(min_value=-12, max_value=12))
def test_radar_indices_are_integers(pattern, u, v):
    rc = radar_coordinates(ObserverSpec(pattern), Event(u, v))
    assert (rc.t_obs - rc.x_obs).denominator in (1, 2)
    assert float(rc.emission) == float(rc.t_obs - abs(rc.x_obs))
    assert (2 * rc.t_obs).denominator == 1  # half-integer grid


@settings(max_examples=40)
@given(patterns, st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8),
       st.lists(st.sampled_from([(1, 0), (0, 1)]), min_size=1, max_size=12))
def test_causal_speed_bound_along_chains(pattern, u0, v0, steps):
    # radar time advances at least as fast as radar distance along any causal chain
    spec = ObserverSpec(pattern)
    e = Event(u0, v0)
    rc = radar_coordinates(spec, e)
    for du, dv in steps:
        nxt = Event(e.u + du, e.v + dv)
        rc_next = radar_coordinates(spec, nxt)
        dt = rc_next.t_obs - rc.t_obs
        dx = rc_next.x_obs - rc.x_obs
        assert abs(dx) <= dt
        e, rc = nxt, rc_next


def test_foliation_leaf_example():
    leaf = foliation_leaf(REST, 0, Window((-6, 6), (-4, 4)))
    assert sorted((e.t, e.x) for e in leaf.events) == [(0, -4), (0, -2), (0, 0), (0, 2), (0, 4)]
    assert leaf.is_achronal()


def test_rest_half_integer_leaves_are_empty():
    # the rest chain assigns integer radar times everywhere
    window = Window((-5, 5), (-5, 5))
    for half in (Fraction(1, 2), Fraction(-3, 2)):
        assert foliation_leaf(REST, half, window).events == ()


def test_boosted_leaves_are_staircases_and_achronal():
    for pattern in ("RRL", "RRRL", "RRRRL", "RLLL"):
        spec = ObserverSpec(pattern)
        window = Window((-10, 10), (-12, 12))
        seen = set()
        for e in window.events():
            seen.add(radar_coordinates(spec, e).t_obs)
        checked = 0
        for t_obs in sorted(seen)[:: max(1, len(seen) // 8)]:
            leaf = foliation_leaf(spec, t_obs, window)
            assert leaf.is_achronal()
            checked += len(leaf.events)
        assert checked > 0


def test_achronality_brute_force_against_causal_order():
    leaf = foliation_leaf(ObserverSpec("RRRL"), 0, Window((-8, 8), (-8, 8)))
    for a in leaf.events:
        for b in leaf.events:
            assert not causally_precedes(a, b)


def test_boost_map_identity_and_translation():
    ident = boost_map(REST, REST, Window.centered(6, 6), scale_a=1.0, scale_b=1.0)
    assert np.array_equal(ident[:, :2], ident[:, 2:])
    fit = fit_lorentz(ident)
    assert abs(fit.beta) < 1e-12 and fit.gamma == pytest.approx(1.0, rel=1e-12)
    assert fit.max_residual < 1e-10

    translated = ObserverSpec("RL", Event(3, 1))
    mapping = boost_map(REST, translated, Window.centered(6, 6), scale_a=1.0, scale_b=1.0)
    fit = fit_lorentz(mapping)
    assert abs(fit.beta) < 0.02
    assert fit.offset[0] == pytest.approx(-4.0, abs=0.2)  # t shift of the new origin
    assert fit.max_residual <= 1.0


def test_fit_lorentz_recovers_synthetic_boost():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-40, 40, size=(64, 2))
    for beta in (0.0, 0.3, -0.6):
        gamma = 1 / math.sqrt(1 - beta**2)
        mat = np.array([[gamma, -gamma * beta], [-gamma * beta, gamma]])
        out = pts @ mat.T + np.array([1.5, -2.0])
        fit = fit_lorentz(np.hstack([pts, out]))
        assert fit.beta == pytest.approx(beta, abs=1e-12)
        assert fit.gamma == pytest.approx(1 / math.sqrt(1 - beta**2), rel=1e-12)
        assert fit.max_residual < 1e-10
        assert fit.offset == (pytest.approx(1.5, abs=1e-10), pytest.approx(-2.0, abs=1e-10))


def test_fit_lorentz_rejects_bad_samples():
    with pytest.raises(ValueError):
        fit_lorentz(np.zeros((4, 4)))  # too few points
    line = np.array([[t, t, t, t] for t in range(10)], dtype=float)
    with pytest.raises(ValueError):
        fit_lorentz(line)  # collinear through the origin


def test_emergent_boost_fits():
    for pattern, beta in (("RRL", 1 / 3), ("RRRL", 1 / 2), ("RRRRL", 3 / 5)):
        spec = ObserverSpec(pattern)
        mapping = boost_map(
            REST, spec, Window.centered(16, 16),
            scale_a=default_scale(REST) * 0.5, scale_b=default_scale(spec) * 0.5,
        )
        fit = fit_lorentz(mapping)
        assert fit.beta == pytest.approx(beta, abs=0.02)
        assert fit.gamma == pytest.approx(1 / math.sqrt(1 - fit.beta**2), abs=0.02)
        assert fit.max_residual <= 1.0
        assert fit.determinant == pytest.approx(1.0, abs=0.02)


def test_velocity_composition_of_fitted_boosts():
    a, b, c = REST, ObserverSpec("RRL"), ObserverSpec("RRRRL")
    win = Window.centered(16, 16)

    def fitted_beta(s1, s2):
        return fit_lorentz(boost_map(s1, s2, win,
                                     scale_a=default_scale(s1) * 0.5,
                                     scale_b=default_scale(s2) * 0.5)).beta

    beta_ab, beta_bc, beta_ac = fitted_beta(a, b), fitted_beta(b, c), fitted_beta(a, c)
    assert beta_ac == pytest.approx(velocity_addition(beta_ab, beta_bc), abs=0.02)


def test_einstein_clock_counts():
    rest = einstein_clock(REST, 1)
    assert rest.event_count == 8
    assert rest.separation_chart_events == 2
    boosted = einstein_clock(ObserverSpec("RRRL"), 1)
    assert boosted.event_count == 16
    assert boosted.separation_leaf_events == 1
    # counts are translation invariant
    moved = einstein_clock(ObserverSpec("RRRL", Event(-7, 4)), 1)
    assert moved.event_count == 16
    with pytest.raises(ValueError):
        einstein_clock(REST, 0)


def test_einstein_clock_scales_with_separation():
    assert einstein_clock(REST, 2).event_count == 16
    assert einstein_clock(REST, 3).event_count == 24


def test_coarse_grain_composition():
    window = Window.centered(4, 4)
    mapping = boost_map(REST, REST, window, scale_a=1.0, scale_b=0.25)
    assert np.array_equal(mapping[:, 2:], 0.25 * mapping[:, :2])
    for scales in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            boost_map(REST, REST, window, *scales)
