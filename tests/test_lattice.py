from collections import deque

import pytest
from hypothesis import given, strategies as st

from causalqca.lattice import Event, causally_precedes

coords = st.integers(min_value=-50, max_value=50)
events = st.builds(Event, coords, coords)


def test_event_coordinates():
    e = Event(3, -1)
    assert (e.t, e.x) == (2, 4)
    assert Event.from_tx(2, 4) == e
    with pytest.raises(ValueError):
        Event.from_tx(1, 2)  # t+x odd


def test_causal_order_examples():
    assert causally_precedes(Event.from_tx(0, 0), Event.from_tx(2, 0))
    assert not causally_precedes(Event.from_tx(0, 0), Event.from_tx(2, 4))


@given(events)
def test_irreflexive(e):
    assert not causally_precedes(e, e)


@given(events, events, events)
def test_transitive(a, b, c):
    if causally_precedes(a, b) and causally_precedes(b, c):
        assert causally_precedes(a, c)


def _bfs_reachable(start, u_max, v_max):
    seen = {start}
    queue = deque([start])
    while queue:
        e = queue.popleft()
        for s in (Event(e.u + 1, e.v), Event(e.u, e.v + 1)):  # the two lightlike steps
            if s.u <= u_max and s.v <= v_max and s not in seen:
                seen.add(s)
                queue.append(s)
    seen.discard(start)
    return seen


def test_causal_order_matches_bfs_on_region():
    # oracle: breadth-first reachability along lightlike steps, 20x20 region
    nodes = [Event(u, v) for u in range(20) for v in range(20)]
    for a in nodes[:: 7]:  # subsample origins to keep the quadratic scan quick
        reach = _bfs_reachable(a, 19, 19)
        for b in nodes:
            assert causally_precedes(a, b) == (b in reach)
