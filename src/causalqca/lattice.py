"""The homogeneous 1+1D lightcone lattice.

Events are addressed by integer lightcone coordinates (u, v); the lattice
itself is implicit, so everything here is plain coordinate arithmetic.  The
derived labels are t = u + v and x = u - v (t + x is always even).  Each event
has exactly two causal successors, (u+1, v) and (u, v+1), which makes the
causal order a product order on (u, v).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class Event(NamedTuple):
    u: int
    v: int

    @property
    def t(self) -> int:
        return self.u + self.v

    @property
    def x(self) -> int:
        return self.u - self.v

    @classmethod
    def from_tx(cls, t: int, x: int) -> "Event":
        if (t + x) % 2 != 0:
            raise ValueError(f"(t={t}, x={x}) is not a lattice event: t+x must be even")
        return cls((t + x) // 2, (t - x) // 2)


RIGHT = "right"  # increments u
LEFT = "left"  # increments v


def successors(e: Event) -> tuple[Event, Event]:
    return Event(e.u + 1, e.v), Event(e.u, e.v + 1)


def predecessors(e: Event) -> tuple[Event, Event]:
    return Event(e.u - 1, e.v), Event(e.u, e.v - 1)


def causally_precedes(e1: Event, e2: Event) -> bool:
    """True iff e2 is inside or on the forward lightcone of e1 (and distinct)."""
    return e1.u <= e2.u and e1.v <= e2.v and e1 != e2


def signal_trace(origin: Event, direction: str, steps: int) -> list[Event]:
    """Lightlike chain of ``steps + 1`` events moving one event per step."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if direction == RIGHT:
        return [Event(origin.u + k, origin.v) for k in range(steps + 1)]
    if direction == LEFT:
        return [Event(origin.u, origin.v + k) for k in range(steps + 1)]
    raise ValueError(f"direction must be {RIGHT!r} or {LEFT!r}, got {direction!r}")


def is_causal_chain(events: Sequence[Event]) -> bool:
    """True iff each step increments exactly one of (u, v) by one."""
    for a, b in zip(events, events[1:]):
        du, dv = b.u - a.u, b.v - a.v
        if (du, dv) not in ((1, 0), (0, 1)):
            return False
    return True
