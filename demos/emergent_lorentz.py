"""How boosts fall out of counting events on a causal lattice.

Walks through the whole construction: zigzag observer chains, radar
coordinates from light-signal brackets, simultaneity leaves, the Einstein
light clock of the figure-style counts, and finally a least-squares boost fit
between two observers' charts.  Writes a small spacetime diagram to
emergent_lorentz.svg next to this script.
"""

import math
from pathlib import Path

from causalqca.diagrams import spacetime_svg
from causalqca.lattice import Event
from causalqca.observers import (
    ObserverSpec,
    Window,
    boost_map,
    default_scale,
    einstein_clock,
    fit_lorentz,
    foliation_leaf,
    radar_coordinates,
)

rest = ObserverSpec("RL")
boosted = ObserverSpec("RRRL")  # three right steps per left step: drift 1/2

print("== observer chains ==")
print("rest chain   :", [tuple(rest.event_at(n)) for n in range(6)])
print("boosted chain:", [tuple(boosted.event_at(n)) for n in range(6)])
print(f"boosted drift {boosted.drift} (gamma {boosted.time_dilation:.4f})")

print("\n== radar coordinates are pure event counting ==")
for e in (Event.from_tx(0, 4), Event.from_tx(0, -4), Event.from_tx(4, 2)):
    rc = radar_coordinates(rest, e)
    print(
        f"event (t={e.t:+d}, x={e.x:+d}): emitted at chain index {rc.emission}, "
        f"received at {rc.reception} -> t_obs={rc.t_obs:g}, x_obs={rc.x_obs:g}"
    )

print("\n== simultaneity leaves ==")
window = Window((-6, 6), (-8, 8))
for spec in (rest, boosted):
    leaf = foliation_leaf(spec, 0, window)
    coords = sorted((e.t, e.x) for e in leaf.events)
    print(f"{spec.pattern:5s} leaf at t_obs=0: {coords} (achronal: {leaf.is_achronal()})")

print("\n== the light clock, by event counts ==")
for spec in (rest, boosted):
    clock = einstein_clock(spec, 1)
    print(
        f"{spec.pattern:5s}: {clock.event_count:2d} events per tic-tac, mirrors "
        f"{clock.separation_leaf_events} leaf event(s) = {clock.separation_chart_events} chart events apart"
    )
print("the boosted clock counts twice the events of the rest clock: time dilation")

print("\n== fitting the boost between the two charts ==")
mapping = boost_map(
    rest, boosted, Window.centered(16, 16),
    scale_a=default_scale(rest) * 0.5, scale_b=default_scale(boosted) * 0.5,
)
fit = fit_lorentz(mapping)
print(f"fitted beta  = {fit.beta:+.4f}   (kinematic drift: {boosted.drift:+.4f})")
print(f"fitted gamma = {fit.gamma:.4f}   (1/sqrt(1-beta^2): {1 / math.sqrt(1 - fit.beta**2):.4f})")
print(f"largest residual {fit.max_residual:.3f} chart events, determinant {fit.determinant:.4f}")

out = Path(__file__).with_name("emergent_lorentz.svg")
out.write_text(
    spacetime_svg(
        window,
        worldlines=[
            ("RL", [rest.event_at(n) for n in range(-6, 7)]),
            ("RRRL", [boosted.event_at(n) for n in range(-6, 7)]),
        ],
        leaves=[
            ("rest leaf", foliation_leaf(rest, 0, window).events),
            ("boosted leaf", foliation_leaf(boosted, 0, window).events),
        ],
        title="two observers, two foliations",
    )
)
print(f"\nwrote {out.name}")
