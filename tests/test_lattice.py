from collections import deque

import pytest
from hypothesis import given, strategies as st

from causalqca.lattice import (
    Event,
    causally_precedes,
    is_causal_chain,
    predecessors,
    signal_trace,
    successors,
)

coords = st.integers(min_value=-50, max_value=50)
events = st.builds(Event, coords, coords)


def test_event_coordinates():
    e = Event(3, -1)
    assert (e.t, e.x) == (2, 4)
    assert Event.from_tx(2, 4) == e
    with pytest.raises(ValueError):
        Event.from_tx(1, 2)  # t+x odd


def test_successors_examples():
    assert successors(Event(0, 0)) == (Event(1, 0), Event(0, 1))
    assert successors(Event(-3, 5)) == (Event(-2, 5), Event(-3, 6))


@given(events)
def test_adjacency_symmetry(e):
    for s in successors(e):
        assert e in predecessors(s)
    for p in predecessors(e):
        assert e in successors(p)


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
        for s in successors(e):
            if s.u <= u_max and s.v <= v_max and s not in seen:
                seen.add(s)
                queue.append(s)
    seen.discard(start)
    return seen


def test_causal_order_matches_bfs_on_region():
    # oracle: breadth-first reachability along successor edges, 20x20 region
    nodes = [Event(u, v) for u in range(20) for v in range(20)]
    for a in nodes[:: 7]:  # subsample origins to keep the quadratic scan quick
        reach = _bfs_reachable(a, 19, 19)
        for b in nodes:
            assert causally_precedes(a, b) == (b in reach)


def test_signal_trace_examples():
    right = signal_trace(Event(0, 0), "right", 3)
    assert right == [Event(0, 0), Event(1, 0), Event(2, 0), Event(3, 0)]
    left = signal_trace(Event(0, 0), "left", 2)
    assert left == [Event(0, 0), Event(0, 1), Event(0, 2)]
    with pytest.raises(ValueError):
        signal_trace(Event(0, 0), "up", 1)
    with pytest.raises(ValueError):
        signal_trace(Event(0, 0), "right", -1)


@given(events, st.sampled_from(["right", "left"]), st.integers(min_value=0, max_value=30))
def test_signals_are_lightlike_causal_chains(origin, direction, steps):
    trace = signal_trace(origin, direction, steps)
    assert len(trace) == steps + 1
    assert is_causal_chain(trace)
    if direction == "right":
        assert len({e.x - e.t for e in trace}) == 1
    else:
        assert len({e.x + e.t for e in trace}) == 1
    assert all(abs(b.x - a.x) == b.t - a.t for a, b in zip(trace, trace[1:]))


def test_is_causal_chain_examples():
    assert is_causal_chain([Event(0, 0), Event(1, 0), Event(1, 1)])
    assert not is_causal_chain([Event(0, 0), Event(1, 1)])
    assert is_causal_chain([])
    assert is_causal_chain([Event(5, 5)])
