"""The NOCSTAR interconnect: timing, contention, acquisition modes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NocstarConfig, ROUND_TRIP
from repro.core.nocstar import NocstarInterconnect
from repro.noc.topology import MeshTopology


def make(tiles=16, **kw):
    return NocstarInterconnect(MeshTopology(tiles), NocstarConfig(**kw))


def test_local_message_is_immediate():
    ic = make()
    t = ic.send(3, 3, now=10)
    assert t.ready == 10
    assert t.hops == 0 and t.setup_retries == 0


def test_uncontended_remote_is_setup_plus_one_cycle():
    """Fig 10: 1 cycle path setup + 1 cycle traversal, any distance."""
    ic = make(64)
    far = ic.send(0, 63, now=0)  # 14 hops, HPCmax=16
    assert far.ready == 2
    assert far.traversal_cycles == 1


def test_speculative_setup_saves_a_cycle():
    ic = make()
    assert ic.send(0, 5, now=0, speculative_setup=True).ready == 1


def test_hpc_max_pipelining():
    ic = make(64, hpc_max=4)
    t = ic.send(0, 63, now=0)  # 14 hops -> ceil(14/4) = 4 cycles
    assert t.traversal_cycles == 4
    assert t.ready == 5


def test_conflicting_paths_retry():
    ic = make()
    a = ic.send(0, 3, now=0)
    b = ic.send(0, 3, now=0)  # identical path, same cycle
    assert a.setup_retries == 0
    assert b.setup_retries >= 1
    assert b.ready > a.ready


def test_disjoint_paths_no_interference():
    ic = make()
    ic.send(0, 3, now=0)
    t = ic.send(12, 15, now=0)
    assert t.setup_retries == 0


def test_partial_overlap_conflicts():
    ic = make()
    ic.send(0, 2, now=0)  # uses links (0,1),(1,2)
    t = ic.send(1, 3, now=0)  # needs (1,2),(2,3)
    assert t.setup_retries >= 1


def test_out_of_order_requests_do_not_false_conflict():
    """A reservation at cycle 500 must not delay a message at cycle 100
    (the engine's bounded run-ahead produces such orderings)."""
    ic = make()
    ic.send(0, 3, now=500)
    t = ic.send(0, 3, now=100)
    assert t.setup_retries == 0
    assert t.ready == 102


def test_send_over_held_path_is_a_protocol_error():
    """Round-trip holds must be released before the next arbitration —
    a send over a held link can never be satisfied (the release time is
    unknown), so it raises instead of deadlocking."""
    ic = make()
    held = ic.send(0, 3, now=0, hold=True)
    with pytest.raises(RuntimeError, match="held"):
        ic.send(0, 3, now=5)
    ic.release(held.links, at=20)
    free = ic.send(0, 3, now=30)
    assert free.setup_retries == 0


def test_release_backfills_occupancy():
    ic = make()
    held = ic.send(0, 3, now=0, hold=True)
    ic.release(held.links, at=10)
    # A late-arriving message stamped inside the held window still sees it.
    inside = ic.send(0, 3, now=4)
    assert inside.ready >= 10


def test_round_trip_api():
    """Round-trip acquisition: the request holds its path, the response
    rides it back without arbitrating, then the links are released."""
    ic = make(16, acquire=ROUND_TRIP)
    request = ic.send(0, 5, now=0, hold=True)
    # setup(1) + traverse(1) + service(9) + return traverse(1)
    ready = request.ready + 9 + request.traversal_cycles
    ic.release(request.links, ready)
    assert ready == 12
    assert request.setup_retries == 0
    assert ic.send(0, 5, now=0).ready == 13  # held window backfilled


def test_one_way_round_trip_api():
    ic = make(16)
    request = ic.send(0, 5, now=0)
    response = ic.send(5, 0, request.ready + 9, speculative_setup=True)
    assert response.ready == 12  # response setup speculative during the lookup
    assert request.setup_retries + response.setup_retries == 0


def test_control_requests_counted_per_retry():
    ic = make()
    ic.send(0, 3, now=0)
    before = ic.control_requests
    blocked = ic.send(0, 3, now=0)
    added = ic.control_requests - before
    assert added == 3 * (blocked.setup_retries + 1)


def test_statistics():
    ic = make()
    ic.send(0, 3, now=0)
    ic.send(0, 3, now=0)
    ic.send(5, 5, now=0)
    assert ic.messages == 3
    assert ic.local_messages == 1
    assert 0 < ic.no_contention_fraction < 1
    assert ic.mean_setup_retries > 0


def test_control_wires_formula():
    ic = make(64)  # 8x8
    assert ic.control_wires_per_core() == (8 - 1) + (8 - 1) * 8


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=300),
        ),
        max_size=60,
    )
)
def test_no_two_messages_share_a_link_cycle(messages):
    """Fundamental circuit-switching invariant: each (link, cycle) pair
    carries at most one message."""
    ic = make(16)
    usage = {}
    for src, dst, now in messages:
        t = ic.send(src, dst, now)
        if not t.links:
            continue
        start = t.ready - t.traversal_cycles
        for link in t.links:
            for cycle in range(start, t.ready):
                key = (link, cycle)
                assert key not in usage, "link double-booked"
                usage[key] = (src, dst)


@settings(max_examples=30)
@given(
    st.integers(min_value=2, max_value=64),
    st.data(),
)
def test_ready_time_bounds(n, data):
    """Latency is always >= the uncontended minimum and the traversal
    duration matches ceil(hops / hpc_max)."""
    ic = NocstarInterconnect(MeshTopology(n), NocstarConfig(hpc_max=4))
    src = data.draw(st.integers(min_value=0, max_value=n - 1))
    dst = data.draw(st.integers(min_value=0, max_value=n - 1))
    t = ic.send(src, dst, now=0)
    hops = ic.topology.hops(src, dst)
    expected_dur = -(-hops // 4) if hops else 0
    assert t.traversal_cycles == expected_dur
    if hops:
        assert t.ready >= 1 + expected_dur
