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
chain (so leaves are provably achronal), and is integer arithmetic: t_obs and
x_obs are half-integers, which floats hold exactly for indices below 2**52.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .lattice import Event, causally_precedes
from .walk import _line_fit


@dataclass(frozen=True)
class ObserverSpec:
    """A periodic zigzag chain: pattern over {R, L} plus the index-0 event.

    ``_radar_table`` holds the period and, per light-cone axis (u counts R steps,
    v counts L), the origin, the steps per period and offset tuples last and
    first: with q, r = divmod(c - origin, steps), q * period + last[r] is the last
    chain index with that coordinate <= c, q * period + first[r] the first >= c.
    """

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
    def drift(self) -> float:
        """Mean velocity (x per t) of the chain through the lattice."""
        return (self.n_right - self.n_left) / self.period

    @property
    def time_dilation(self) -> float:
        """gamma = 1 / sqrt(1 - drift**2) = P / (2 sqrt(nR nL))."""
        return self.period / (2.0 * math.sqrt(self.n_right * self.n_left))

    @property
    def doppler_squared(self) -> float:
        """Squared lightcone scaling factor between this chain and a rest chain."""
        return self.n_right / self.n_left

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

    @cached_property
    def _radar_table(self) -> tuple:
        def axis(start: int, kind: str) -> tuple:
            ends = [i + 1 for i, ch in enumerate(self.pattern) if ch == kind]  # index after each step
            return start, len(ends), tuple(n - 1 for n in ends), tuple([ends[-1] - self.period] + ends[:-1])
        return self.period, axis(self.origin.u, "R"), axis(self.origin.v, "L")

    def leaf_step(self) -> tuple[int, int]:
        """Displacement between neighbouring events of one simultaneity leaf."""
        return (self.n_right, -self.n_left)

    def far_mirror(self, separation: int) -> "ObserverSpec":
        """A light clock's far mirror: this chain moved ``separation`` leaf steps."""
        du, dv = self.leaf_step()
        return self.translated(separation * du, separation * dv)


class RadarCoordinate(NamedTuple):
    t_obs: float
    x_obs: float

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
    chain rightward (e on the observer's right).  Each bracket end is one
    divmod per light-cone axis and a lookup in the spec's ``_radar_table``.
    """
    period, (ou, nu, last_u, first_u), (ov, nv, last_v, first_v) = spec._radar_table
    qu, ru = divmod(e.u - ou, nu)
    qv, rv = divmod(e.v - ov, nv)
    qu, qv = qu * period, qv * period
    t1_u, t1_v = qu + last_u[ru], qv + last_v[rv]
    t2_u, t2_v = qu + first_u[ru], qv + first_v[rv]
    t2 = t2_u if t2_u > t2_v else t2_v
    # the emission event sits on the right-moving past ray iff the v side
    # binds; a chain event has gap 0, and int 0 / 2 is +0.0, never -0.0
    if t1_v < t1_u:
        return RadarCoordinate((t1_v + t2) / 2, (t2 - t1_v) / 2)
    return RadarCoordinate((t1_u + t2) / 2, (t1_u - t2) / 2)


class Window(NamedTuple):
    """Inclusive t/x bounds of a finite lattice region."""

    t_range: tuple[int, int]
    x_range: tuple[int, int]

    def events(self) -> Iterator[Event]:
        (t_lo, t_hi), (x_lo, x_hi) = self
        for t in range(t_lo, t_hi + 1):
            for x in range(x_lo + (t + x_lo) % 2, x_hi + 1, 2):  # t + x even: a lattice event
                yield Event((t + x) // 2, (t - x) // 2)

    @classmethod
    def centered(cls, t_radius: int, x_radius: int) -> "Window":
        return cls((-t_radius, t_radius), (-x_radius, x_radius))


@dataclass(frozen=True)
class FoliationLeaf:
    t_obs: float
    events: tuple[Event, ...]

    def is_achronal(self) -> bool:
        for i, a in enumerate(self.events):
            for b in self.events[i + 1 :]:
                if causally_precedes(a, b) or causally_precedes(b, a):
                    return False
        return True


def foliation_leaf(spec: ObserverSpec, t_obs, window: Window) -> FoliationLeaf:
    """All window events whose radar time equals ``t_obs`` (may be empty)."""
    hits = tuple(e for e in window.events() if radar_coordinates(spec, e).t_obs == t_obs)
    return FoliationLeaf(t_obs, hits)


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
    :func:`default_scale`.  A window of more than 2**20 events, such as a
    centered square one of radius 724 or more, raises ValueError before any
    event is built: the count comes from its bounds.
    """
    if not (0 < scale_a < math.inf and 0 < scale_b < math.inf):
        raise ValueError(f"scales must be finite and positive, got {scale_a} and {scale_b}")
    (t_lo, t_hi), (x_lo, x_hi) = window
    n_t, n_x = max(0, t_hi - t_lo + 1), max(0, x_hi - x_lo + 1)
    # events have t + x even; an odd-length range holds one more value of its first bound's parity
    surplus = (n_t % 2) * (1 - 2 * (t_lo % 2)) * (n_x % 2) * (1 - 2 * (x_lo % 2))
    if (count := (n_t * n_x + surplus) // 2) > 2**20:
        raise ValueError(f"the window holds {count} events; boost_map takes at most 2**20 = {2**20}")
    rows = []
    for e in window.events():
        ra, rb = radar_coordinates(spec_a, e), radar_coordinates(spec_b, e)
        rows.append((ra.t_obs * scale_a, ra.x_obs * scale_a,
                     rb.t_obs * scale_b, rb.x_obs * scale_b))
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
    part (1 for an exact boost) and the translation (ct, cx).  The boost is
    diagonal on light-cone coordinates u = t + x, v = t - x: uB = k_u uA + c_u and
    vB = k_v vA + c_v with the Doppler factors k_u, k_v = g -+ g*beta of Bondi's
    k-calculus (D'Ariano and Tosini, arXiv:1008.4805).  The (t, x) sum of squares
    is half the (u, v) one, so these two line fits solve the same problem.
    """
    m = np.asarray(mapping, dtype=float)
    if m.ndim != 2 or m.shape[1] != 4 or m.shape[0] < 8:
        raise ValueError("mapping must be an (N >= 8, 4) array of (tA, xA, tB, xB)")
    if not np.isfinite(m).all():
        raise ValueError("mapping must be finite: a chart coordinate is inf or nan")
    sa, sb = (float(np.max(np.abs(chart))) or 1.0 for chart in (m[:, :2], m[:, 2:]))
    ta, xa, tb, xb = (m / [sa, sa, sb, sb]).T  # each chart scaled to a largest coordinate of 1
    (k_u, c_u, r_u), (k_v, c_v, r_v) = (_line_fit(ta + s * xa, tb + s * xb) for s in (1.0, -1.0))
    k_u, k_v = k_u * (sb / sa), k_v * (sb / sa)
    if k_u + k_v == 0.0:  # e.g. a B chart that collapses to a point: no boost carries it
        raise ValueError("degenerate sample set: the fitted map has k_u + k_v = 0 and no boost")
    # the (t, x) residuals are (r_u + r_v) / 2 and (r_u - r_v) / 2; the larger is (|r_u| + |r_v|) / 2
    return BoostFit(beta=(k_v - k_u) / (k_v + k_u), gamma=(k_u + k_v) / 2,
                    max_residual=float(np.max(np.abs(r_u) + np.abs(r_v))) / 2 * sb,
                    determinant=k_u * k_v, offset=((c_u + c_v) / 2 * sb, (c_u - c_v) / 2 * sb))


def velocity_addition(beta_ab: float, beta_bc: float) -> float:
    return (beta_ab + beta_bc) / (1.0 + beta_ab * beta_bc)


class ClockTicTac(NamedTuple):
    """One light bounce between two comoving mirror chains, by event counts."""

    event_count: int
    separation_leaf_events: int
    separation_chart_events: int


def einstein_clock(spec: ObserverSpec, mirror_separation: int = 1) -> ClockTicTac:
    """Count chain events on both mirror worldlines during one full tic-tac.

    The far mirror is the observer's chain moved by ``mirror_separation`` leaf
    steps (nR, -nL), each Minkowski-orthogonal to one period and ``period`` chart
    events long; its origin need not have radar time 0 (for RRRL it has 1.0).
    A lightlike signal leaves the near mirror at index 0, reflects off the far
    mirror and returns; both worldlines are counted over the closed leaf-time
    interval [0, m] of the round trip, the same number of events on each mirror.
    The brackets of a trip that long, about 4 * period * mirror_separation, must
    stay below 2**53, where floats hold them exactly.
    """
    if mirror_separation < 1:
        raise ValueError("mirror_separation must be at least one leaf event")
    if 4 * spec.period * mirror_separation >= 2**53:
        raise ValueError(f"mirror_separation must be at most {(2**53 - 1) // (4 * spec.period)} for the "
                         f"period-{spec.period} pattern {spec.pattern}, got {mirror_separation}")
    far = spec.far_mirror(mirror_separation)
    # the mirrors are disjoint translates, and v (then u) moves by at most one
    # per index, so each reception lies on the ray that left the other mirror
    reflection = far.event_at(radar_coordinates(far, spec.origin).reception)
    m = radar_coordinates(spec, reflection).reception
    return ClockTicTac(2 * (m + 1), mirror_separation, mirror_separation * spec.period)
