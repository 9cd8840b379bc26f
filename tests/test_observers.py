import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from causalqca.lattice import Event, causally_precedes
from causalqca.observers import (
    ClockTicTac,
    FoliationLeaf,
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
coords = st.integers(min_value=-10_000, max_value=10_000)
origins = st.builds(Event, st.integers(-50, 50), st.integers(-50, 50))


def _first_at_least(f, target: int) -> int:
    """Smallest integer n with f(n) >= target, for f non-decreasing, unbounded."""
    lo = 0
    step = 1
    while f(lo) >= target:
        lo -= step
        step *= 2
    hi = lo + step
    while f(hi) < target:
        hi += step
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


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


def _radar_oracle(spec: ObserverSpec, e: Event) -> tuple[Fraction, Fraction]:
    """Radar (t, x) from the searched bracket, in exact rationals."""
    last_u = _first_at_least(spec.u_at, e.u + 1) - 1
    last_v = _first_at_least(spec.v_at, e.v + 1) - 1
    t1 = min(last_u, last_v)
    t2 = max(_first_at_least(spec.u_at, e.u), _first_at_least(spec.v_at, e.v))
    half_gap = Fraction(t2 - t1, 2)
    return Fraction(t1 + t2, 2), half_gap if last_v < last_u else -half_gap


@given(patterns, origins, coords, coords)
@example("RRRL", Event(50, -50), 2**51 + 3, -(2**51) + 1)  # the far end of einstein_clock's range
@example("LR", Event(-50, 50), -(2**51), 2**51 - 1)
def test_radar_table_matches_the_search(pattern, origin, u, v):
    # repr, not ==: a -0.0 distance would compare equal to the oracle's 0
    spec, e = ObserverSpec(pattern, origin), Event(u, v)
    oracle = tuple(float(c) for c in _radar_oracle(spec, e))
    assert repr(tuple(radar_coordinates(spec, e))) == repr(oracle)


@given(patterns, origins, coords, coords, coords, coords)
def test_radar_is_translation_invariant(pattern, origin, du, dv, u, v):
    # each spec builds its own table, so the translated chart must be bit for bit the same
    spec = ObserverSpec(pattern, origin)
    moved = radar_coordinates(spec.translated(du, dv), Event(u + du, v + dv))
    assert repr(tuple(moved)) == repr(tuple(radar_coordinates(spec, Event(u, v))))


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
    assert (2 * rc.t_obs).is_integer()  # half-integer grid
    assert rc.emission == rc.t_obs - abs(rc.x_obs)
    assert rc.reception == rc.t_obs + abs(rc.x_obs)


@given(patterns, st.integers(1, 3), origins, st.integers(-30, 30), st.integers(-30, 30))
def test_radar_respects_period_representation_and_parity(pattern, k, origin, u, v):
    # the chain is the same for a repeated pattern; the R <-> L mirror swaps u
    # and v, which keeps every chain index and flips the sign of distance
    rc = radar_coordinates(ObserverSpec(pattern, origin), Event(u, v))
    assert radar_coordinates(ObserverSpec(pattern * k, origin), Event(u, v)) == rc
    mirror = ObserverSpec(pattern.translate(str.maketrans("RL", "LR")), Event(origin.v, origin.u))
    assert radar_coordinates(mirror, Event(v, u)) == (rc.t_obs, -rc.x_obs)


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


def test_leaf_with_causally_related_events_is_not_achronal():
    assert not FoliationLeaf(0.0, (Event(0, 0), Event(1, 0))).is_achronal()


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


@settings(max_examples=60)
@given(patterns, patterns, origins, origins, st.integers(1, 5), st.integers(-20, 20),
       st.integers(-20, 20), st.sampled_from([0.25, 0.5, 0.75, 1.0, 2.0]))
def test_boost_map_is_bitwise_the_exact_chart(pattern_a, pattern_b, origin_a, origin_b,
                                              radius, dt, dx, coarse):
    # bytes, not values: np.array_equal would take -0.0 for 0.0
    spec_a, spec_b = ObserverSpec(pattern_a, origin_a), ObserverSpec(pattern_b, origin_b)
    window = Window((-radius + dt, radius + dt), (-radius + dx, radius + dx))
    scale_a, scale_b = default_scale(spec_a) * coarse, default_scale(spec_b) * coarse
    rows = []
    for e in window.events():
        (ta, xa), (tb, xb) = _radar_oracle(spec_a, e), _radar_oracle(spec_b, e)
        rows.append((float(ta) * scale_a, float(xa) * scale_a, float(tb) * scale_b, float(xb) * scale_b))
    expected = np.asarray(rows, dtype=float)
    assert boost_map(spec_a, spec_b, window, scale_a, scale_b).tobytes() == expected.tobytes()


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


@settings(max_examples=100)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
       st.integers(-300, 300))
def test_fit_lorentz_recovers_light_cone_maps_at_any_scale(k_u, k_v, c_u, c_v, s):
    # uB = k_u uA + c_u and vB = k_v vA + c_v on light-cone coordinates u = t + x,
    # v = t - x of a chart at scale 10**s: the boost g = (k_u + k_v) / 2,
    # g beta = (k_v - k_u) / 2 with determinant k_u k_v, shifted by (ct, cx)
    scale = 10.0**s
    rows = []
    for e in Window.centered(8, 8).events():
        ta, xa = e.t * scale, e.x * scale
        ub, vb = k_u * (ta + xa) + c_u * scale, k_v * (ta - xa) + c_v * scale
        rows.append((ta, xa, (ub + vb) / 2, (ub - vb) / 2))
    mapping = np.array(rows)
    fit = fit_lorentz(mapping)
    assert fit.beta == pytest.approx((k_v - k_u) / (k_v + k_u), rel=1e-12, abs=1e-12)
    assert fit.gamma == pytest.approx((k_u + k_v) / 2, rel=1e-12)
    assert fit.determinant == pytest.approx(k_u * k_v, rel=1e-12)
    # offsets and residual against the extent of the chart
    extent = float(np.max(np.abs(mapping)))
    assert fit.offset[0] == pytest.approx((c_u + c_v) / 2 * scale, abs=1e-12 * extent)
    assert fit.offset[1] == pytest.approx((c_u - c_v) / 2 * scale, abs=1e-12 * extent)
    assert fit.max_residual <= 1e-12 * extent


def test_fit_lorentz_rejects_bad_samples():
    with pytest.raises(ValueError):
        fit_lorentz(np.zeros((4, 4)))  # too few points
    line = np.array([[t, t, t, t] for t in range(10)], dtype=float)
    with pytest.raises(ValueError):
        fit_lorentz(line)  # collinear through the origin
    collapsed = np.array([[t, (t * 7) % 5 - 2, 0, 0] for t in range(10)], dtype=float)
    with pytest.raises(ValueError, match="degenerate sample set"):
        fit_lorentz(collapsed)  # A spans its chart, B is one point: k_u + k_v = 0
    # u = tA + xA spreads by 1e-200 on all but one sample, whose offsets from the mean square to 0
    tiny = np.array([[1e-200 * k, 1e-200 * k, k, k] for k in range(7)] + [[1.0, -1.0, 1.0, -1.0]])
    with pytest.raises(ValueError, match="degenerate sample set"):
        fit_lorentz(tiny)


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
    # the two ends of the count bound: 4*P*sep and 4*P*sep - 2*(P - 1)
    assert einstein_clock(ObserverSpec("LR"), 1).event_count == 6
    assert einstein_clock(ObserverSpec("LLLR"), 1).event_count == 10


def _on_chain(spec: ObserverSpec, e: Event) -> bool:
    return spec.event_at(e.t - spec.origin.t) == e


@settings(max_examples=60)
@given(patterns, st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 50))
def test_einstein_clock_follows_a_light_ray(pattern, u0, v0, sep):
    # brute force: step a ray right to the far mirror, then left back
    spec = ObserverSpec(pattern, Event(u0, v0))
    du, dv = spec.leaf_step()
    far = spec.translated(sep * du, sep * dv)
    reach = 2 * sep * spec.period + spec.period
    right = (Event(spec.origin.u + k, spec.origin.v) for k in range(reach + 1))
    reflection = next(e for e in right if _on_chain(far, e))
    left = (Event(reflection.u, reflection.v + k) for k in range(reach + 1))
    back = next(e for e in left if _on_chain(spec, e))
    m = back.t - spec.origin.t
    assert einstein_clock(spec, sep) == ClockTicTac(2 * (m + 1), sep, sep * spec.period)


@given(patterns, st.integers(1, 50))
def test_einstein_clock_count_bound(pattern, sep):
    # the round trip across sep leaf steps, give or take a period at each end
    spec = ObserverSpec(pattern)
    count = einstein_clock(spec, sep).event_count
    full = 4 * spec.period * sep
    assert count % 2 == 0 and full - 2 * (spec.period - 1) <= count <= full


def test_coarse_grain_composition():
    window = Window.centered(4, 4)
    mapping = boost_map(REST, REST, window, scale_a=1.0, scale_b=0.25)
    assert np.array_equal(mapping[:, 2:], 0.25 * mapping[:, :2])
    for scales in ((0.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite and positive"):
            boost_map(REST, REST, window, *scales)


def test_fit_lorentz_rejects_non_finite_mappings():
    mapping = boost_map(REST, REST, Window.centered(4, 4), scale_a=1.0, scale_b=1e308)
    assert not np.isfinite(mapping).all()  # the chart overflowed
    with pytest.raises(ValueError, match="finite"):
        fit_lorentz(mapping)


class _Built(Exception):
    """Raised by a stand-in radar lookup: boost_map accepted its window."""


def _event_count(window: Window) -> int:
    """Events row by row: each t holds the x of its parity in the x range."""
    (t_lo, t_hi), (x_lo, x_hi) = window
    return sum(len(range(x_lo + (t + x_lo) % 2, x_hi + 1, 2)) for t in range(t_lo, t_hi + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(-2000, 2000), st.integers(-2000, 2000), st.integers(-1, 3000), st.integers(-1, 3000))
@example(0, 0, 1023, 2047)  # 1024 x 2048 lattice points: exactly 2**20 events, the most boost_map takes
@example(0, 0, 2, 699050)  # 3 x 699051 points: with both bounds even, 2**20 + 1 events, one too many,
@example(0, 1, 2, 699050)  # and with an odd x bound, 2**20
@example(-3, 1, 4, 5)  # odd bounds and odd lengths
def test_boost_map_counts_the_window_from_its_bounds(t_lo, x_lo, t_span, x_span):
    # a window of more than 2**20 events is rejected with its count before any event is built
    window = Window((t_lo, t_lo + t_span), (x_lo, x_lo + x_span))
    count = _event_count(window)
    if count > 2**20:
        with pytest.raises(ValueError, match=f"the window holds {count} events; boost_map takes at most 2"):
            boost_map(REST, REST, window, 1.0, 1.0)
    elif count <= 4096:
        assert len(boost_map(REST, REST, window, 1.0, 1.0)) == count
    else:  # building it would be slow: its first radar lookup shows that the window was accepted
        with mock.patch("causalqca.observers.radar_coordinates", side_effect=_Built), pytest.raises(_Built):
            boost_map(REST, REST, window, 1.0, 1.0)
