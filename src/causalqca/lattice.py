"""The homogeneous 1+1D lightcone lattice.

Events are addressed by integer lightcone coordinates (u, v); the lattice
itself is implicit, so everything here is plain coordinate arithmetic.  The
derived labels are t = u + v and x = u - v (t + x is always even).  Each event
is immediately followed by exactly two events, (u+1, v) and (u, v+1), which
makes the causal order a product order on (u, v).
"""

from __future__ import annotations

from typing import NamedTuple


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


def causally_precedes(e1: Event, e2: Event) -> bool:
    """True iff e2 is inside or on the forward lightcone of e1 (and distinct)."""
    return e1.u <= e2.u and e1.v <= e2.v and e1 != e2
