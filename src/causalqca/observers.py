"""Periodic observer chains, radar coordinates, foliations and boost fits.

An observer is an unbounded causal chain built by repeating a finite pattern
of R steps (increment u) and L steps (increment v) in both time directions.
Every coordinate assignment here is pure event counting along that chain:

* radar time/distance of an event come from the chain indices bracketing a
  lightlike there-and-back signal,
* a foliation leaf collects the events sharing one radar time,
* comparing two observers' charts over a window of events and fitting a
  linear map recovers the boost between them.

Radar bracket convention.  The emission index of an event e is the last
chain index whose signal can still reach e, i.e. the last chain event in the
causal past of e; the reception index is the first chain event in its causal
future.  Both lie on the lightlike rays through e, so this is the ordinary
two-way radar protocol.  The tight bracket makes chain events exact fixed
points (x_obs = 0), makes radar time strictly monotone along every causal
chain (so leaves are provably achronal), and is exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .lattice import Event, causally_precedes


@dataclass(frozen=True)
class ObserverSpec:
    """A periodic zigzag chain: pattern over {R, L} plus the index-0 event."""

    pattern: str
    origin: Event = Event(0, 0)

    def __post_init__(self):
        if not self.pattern or set(self.pattern) - {"R", "L"}:
            raise ValueError("pattern must be a nonempty string over {R, L}")
        if "R" not in self.pattern or "L" not in self.pattern:
            raise ValueError("pattern must contain both R and L (timelike chain)")

    @cached_property
    def period(self) -> int:
        return len(self.pattern)

    @cached_property
    def n_right(self) -> int:
        return self.pattern.count("R")

    @cached_property
    def n_left(self) -> int:
        return self.pattern.count("L")

    @property
    def drift(self) -> Fraction:
        """Mean velocity (x per t) of the chain through the lattice."""
        return Fraction(self.n_right - self.n_left, self.period)

    @property
    def time_dilation(self) -> float:
        """gamma = 1 / sqrt(1 - drift**2) = P / (2 sqrt(nR nL))."""
        return self.period / (2.0 * math.sqrt(self.n_right * self.n_left))

    @property
    def doppler_squared(self) -> Fraction:
        """Squared lightcone scaling factor between this chain and a rest chain."""
        return Fraction(self.n_right, self.n_left)

    @cached_property
    def _prefix_right(self) -> tuple[int, ...]:
        counts = [0]
        for ch in self.pattern:
            counts.append(counts[-1] + (ch == "R"))
        return tuple(counts)

    def u_at(self, n: int) -> int:
        q, r = divmod(n, self.period)
        return self.origin.u + q * self.n_right + self._prefix_right[r]

    def v_at(self, n: int) -> int:
        q, r = divmod(n, self.period)
        return self.origin.v + q * self.n_left + r - self._prefix_right[r]  # the rest are L

    def event_at(self, n: int) -> Event:
        return Event(self.u_at(n), self.v_at(n))

    def translated(self, du: int, dv: int) -> "ObserverSpec":
        return replace(self, origin=Event(self.origin.u + du, self.origin.v + dv))

    def leaf_step(self) -> tuple[int, int]:
        """Displacement between neighbouring events of one simultaneity leaf."""
        return (self.n_right, -self.n_left)


def _first_at_least(f: Callable[[int], int], target: int) -> int:
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


class RadarCoordinate(NamedTuple):
    t_obs: Fraction
    x_obs: Fraction

    @property
    def emission(self) -> int:
        return int(self.t_obs - abs(self.x_obs))

    @property
    def reception(self) -> int:
        return int(self.t_obs + abs(self.x_obs))


def radar_coordinates(spec: ObserverSpec, e: Event) -> RadarCoordinate:
    """Event-counting time and signed distance of ``e`` along the chain.

    The bracket [t1, t2] holds the last chain index in the causal past of
    ``e`` and the first in its causal future; t_obs is the midpoint and
    |x_obs| the half width.  x_obs is positive when the emission leaves the
    chain rightward (e on the observer's right).
    """
    last_u = _first_at_least(spec.u_at, e.u + 1) - 1  # last index with u <= e.u
    last_v = _first_at_least(spec.v_at, e.v + 1) - 1
    first_u = _first_at_least(spec.u_at, e.u)
    first_v = _first_at_least(spec.v_at, e.v)
    t1 = min(last_u, last_v)
    t2 = max(first_u, first_v)

    t_obs = Fraction(t1 + t2, 2)
    half_gap = Fraction(t2 - t1, 2)
    if half_gap == 0:
        return RadarCoordinate(t_obs, Fraction(0))
    # the emission event sits on the right-moving past ray iff the v side binds
    sign = 1 if last_v < last_u else -1
    return RadarCoordinate(t_obs, sign * half_gap)


class Window(NamedTuple):
    """Inclusive t/x bounds of a finite lattice region."""

    t_range: tuple[int, int]
    x_range: tuple[int, int]

    def events(self) -> Iterator[Event]:
        for t in range(self.t_range[0], self.t_range[1] + 1):
            x0 = self.x_range[0]
            if (t + x0) % 2 != 0:
                x0 += 1
            for x in range(x0, self.x_range[1] + 1, 2):
                yield Event.from_tx(t, x)

    @classmethod
    def centered(cls, t_radius: int, x_radius: int) -> "Window":
        return cls((-t_radius, t_radius), (-x_radius, x_radius))


@dataclass(frozen=True)
class FoliationLeaf:
    t_obs: Fraction
    events: tuple[Event, ...]

    def is_achronal(self) -> bool:
        for i, a in enumerate(self.events):
            for b in self.events[i + 1 :]:
                if causally_precedes(a, b) or causally_precedes(b, a):
                    return False
        return True


def foliation_leaf(spec: ObserverSpec, t_obs, window: Window) -> FoliationLeaf:
    """All window events whose radar time equals ``t_obs`` (may be empty)."""
    target = Fraction(t_obs)
    hits = tuple(
        e for e in window.events() if radar_coordinates(spec, e).t_obs == target
    )
    return FoliationLeaf(target, hits)


def default_scale(spec: ObserverSpec) -> float:
    """Coarse-graining that makes one chain event count one unit of proper time.

    One period of the chain spans a Minkowski length 2*sqrt(nR*nL) in lattice
    units but P chain events; rescaling each chart by the ratio restores the
    symmetry between two observers, so paired charts relate by a unit-
    determinant boost.
    """
    return 2.0 * math.sqrt(spec.n_right * spec.n_left) / spec.period


def boost_map(
    spec_a: ObserverSpec, spec_b: ObserverSpec, window: Window, scale_a: float, scale_b: float
) -> np.ndarray:
    """Chart coordinates of every window event under two observers.

    Returns an (N, 4) array of rows (tA, xA, tB, xB): each observer's radar
    coordinates times its coarse-graining factor, usually a multiple of
    :func:`default_scale`.
    """
    if not (scale_a > 0 and scale_b > 0):
        raise ValueError(f"scales must be positive, got {scale_a} and {scale_b}")
    rows = []
    for e in window.events():
        ra, rb = radar_coordinates(spec_a, e), radar_coordinates(spec_b, e)
        rows.append((float(ra.t_obs) * scale_a, float(ra.x_obs) * scale_a,
                     float(rb.t_obs) * scale_b, float(rb.x_obs) * scale_b))
    return np.asarray(rows, dtype=float)


class BoostFit(NamedTuple):
    beta: float
    gamma: float
    max_residual: float
    determinant: float
    offset: tuple[float, float]


def fit_lorentz(mapping: np.ndarray) -> BoostFit:
    """Least-squares boost through a coordinate mapping.

    Fits (tB, xB) = (g*tA - g*beta*xA + ct, -g*beta*tA + g*xA + cx): a boost
    in the symmetric two-parameter form plus the translation freedom needed
    when the two chains do not share an origin.  Returns the fitted beta and
    gamma = g, the largest absolute residual, the determinant of the linear
    part (1 for an exact boost) and the translation (ct, cx).
    """
    m = np.asarray(mapping, dtype=float)
    if m.ndim != 2 or m.shape[1] != 4 or m.shape[0] < 8:
        raise ValueError("mapping must be an (N >= 8, 4) array of (tA, xA, tB, xB)")
    ta, xa, tb, xb = m.T
    n = len(ta)
    zeros = np.zeros(n)
    ones = np.ones(n)
    # unknowns (g, b, ct, cx); rows: tB = g*tA + b*xA + ct, xB = b*tA + g*xA + cx
    design = np.block([[ta[:, None], xa[:, None], ones[:, None], zeros[:, None]],
                       [xa[:, None], ta[:, None], zeros[:, None], ones[:, None]]])
    target = np.concatenate([tb, xb])
    sol, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 4:
        raise ValueError("degenerate sample set: events do not span the chart plane")
    g, b, ct, cx = sol
    residuals = target - design @ sol
    return BoostFit(beta=float(-b / g), gamma=float(g),
                    max_residual=float(np.max(np.abs(residuals))),
                    determinant=float(g * g - b * b), offset=(float(ct), float(cx)))


def velocity_addition(beta_ab: float, beta_bc: float) -> float:
    return (beta_ab + beta_bc) / (1.0 + beta_ab * beta_bc)


class ClockTicTac(NamedTuple):
    """One light bounce between two comoving mirror chains, by event counts."""

    event_count: int
    separation_leaf_events: int
    separation_chart_events: int
    emission_index: int
    reflection_event: Event
    reception_index: int


def einstein_clock(spec: ObserverSpec, mirror_separation: int = 1) -> ClockTicTac:
    """Count chain events on both mirror worldlines during one full tic-tac.

    The clock is a pair of chains with the observer's own pattern; the far
    mirror sits ``mirror_separation`` leaf events away on the simultaneity
    leaf through the origin (one leaf event spans ``period`` chart events).
    A lightlike signal leaves the near mirror at index 0, reflects off the far
    mirror and returns; both worldlines are then counted over the closed leaf-
    time interval of the round trip, which spans the same number of chain
    events on each mirror.
    """
    if mirror_separation < 1:
        raise ValueError("mirror_separation must be at least one leaf event")
    du, dv = spec.leaf_step()
    far = spec.translated(mirror_separation * du, mirror_separation * dv)

    origin = spec.origin
    k = _first_at_least(far.v_at, origin.v)
    if far.v_at(k) != origin.v or far.u_at(k) <= origin.u:
        raise RuntimeError("right-moving signal missed the far mirror")
    reflection = Event(far.u_at(k), origin.v)

    m = _first_at_least(spec.u_at, reflection.u)
    if spec.u_at(m) != reflection.u:
        raise RuntimeError("returning signal missed the near mirror")
    if spec.v_at(m) <= reflection.v:
        m = _first_at_least(spec.v_at, reflection.v + 1)
        if spec.u_at(m) != reflection.u:
            raise RuntimeError("returning signal missed the near mirror")

    per_mirror = m - 0 + 1  # closed interval [emission, reception] in leaf time
    return ClockTicTac(
        event_count=2 * per_mirror,
        separation_leaf_events=mirror_separation,
        separation_chart_events=mirror_separation * spec.period,
        emission_index=0,
        reflection_event=reflection,
        reception_index=m,
    )
