"""Bitmask link occupancy: layout, O(1) XY masks, and arbitration
proven equal to the set-based oracle (tests/noc/_occupancy_oracle.py)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import NocstarConfig
from repro.core.nocstar import NocstarInterconnect
from repro.noc.fbfly import FlattenedButterfly
from repro.noc.occupancy import LinkLayout, LinkOccupancy, link_ids
from repro.noc.route_cache import shared_route_cache
from repro.noc.smart import SmartNetwork
from repro.noc.topology import MeshTopology

from tests.noc._occupancy_oracle import SetNocstarOracle, SetSmartOracle

#: Tile counts and their (rows, cols) — includes non-square meshes.
MESHES = {4: (2, 2), 12: (3, 4), 16: (4, 4), 64: (8, 8), 128: (8, 16),
          1024: (32, 32)}


def _path_mask(layout, links):
    mask = 0
    for link in links:
        mask |= 1 << layout.link_id(link)
    return mask


@pytest.mark.parametrize("tiles", sorted(MESHES))
def test_layout_ids_are_dense_and_invertible(tiles):
    topo = MeshTopology(tiles)
    assert (topo.rows, topo.cols) == MESHES[tiles]
    layout = LinkLayout(topo)
    links = topo.all_links()
    ids = sorted(layout.link_id(link) for link in links)
    assert ids == list(range(layout.num_links)) and len(links) == layout.num_links
    for link in links:
        assert layout.link_of(layout.link_id(link)) == link
    with pytest.raises(ValueError):
        layout.link_of(layout.num_links)
    if tiles > 4:
        with pytest.raises(ValueError):
            layout.link_id((0, 2))  # not adjacent


@pytest.mark.parametrize("tiles", [4, 12, 16, 64, 128])
def test_xy_mask_equals_xy_path_bits_exhaustively(tiles):
    topo = MeshTopology(tiles)
    layout = LinkLayout(topo)
    for src in range(tiles):
        for dst in range(tiles):
            path = topo.xy_path(src, dst)
            assert layout.xy_mask(src, dst) == _path_mask(layout, path)


def test_xy_mask_equals_xy_path_bits_exhaustively_at_1024_tiles():
    """Every one of the 1M pairs.  Building 1M link tuples would take
    most of a minute, so the expected mask is assembled from
    ``xy_path`` legs: an XY route is ``xy_path(src, corner) +
    xy_path(corner, dst)`` with ``corner`` at (dst x, src y) — which
    the smaller meshes above check pair by pair."""
    topo = MeshTopology(1024)
    layout = LinkLayout(topo)
    cols, rows = topo.cols, topo.rows
    leg = {}
    for a in range(1024):
        ax, ay = topo.coords(a)
        for b in [topo.tile_at(x, ay) for x in range(cols)] + [
            topo.tile_at(ax, y) for y in range(rows)
        ]:
            leg[a, b] = _path_mask(layout, topo.xy_path(a, b))
    xy_mask = layout.xy_mask
    for src in range(1024):
        sy = src // cols
        for dst in range(1024):
            corner = sy * cols + dst % cols
            assert xy_mask(src, dst) == leg[src, corner] | leg[corner, dst]


@pytest.mark.parametrize("tiles", [12, 16, 64])
def test_xy_route_is_x_leg_then_y_leg(tiles):
    topo = MeshTopology(tiles)
    for src in range(tiles):
        for dst in range(tiles):
            corner = topo.tile_at(topo.coords(dst)[0], topo.coords(src)[1])
            assert topo.xy_path(src, dst) == (
                topo.xy_path(src, corner) + topo.xy_path(corner, dst)
            )


def test_link_ids_iterates_set_bits():
    assert list(link_ids(0)) == []
    assert list(link_ids(0b1011 | 1 << 300)) == [0, 1, 3, 300]


def test_first_free_matches_stepwise_search():
    occupancy = LinkOccupancy()
    occupancy.reserve(0b01, 3, 2)  # cycles 3, 4
    occupancy.reserve(0b10, 8, 1)
    occupancy.reserve(0b01, 7, 1)
    for mask in (0b01, 0b10, 0b11):
        for duration in (1, 2, 3, 4):
            for start in range(12):
                stepwise = start
                while not occupancy.is_free(mask, stepwise, duration):
                    stepwise += 1
                assert occupancy.first_free(mask, start, duration) == stepwise
    assert occupancy.busy_counts() == {0: 3, 1: 1}
    occupancy.clear()
    assert occupancy.busy_counts() == {}


# ----------------------------------------------------------------------
# Arbitration vs the set-based oracle

#: Hot tiles per mesh: corners and the centre, so random streams keep
#: colliding even on the 1024-tile mesh.
def _hot(topo):
    return sorted({0, topo.cols - 1, topo.num_tiles - topo.cols,
                   topo.num_tiles - 1, topo.center_tile})


def _tiles(topo):
    return st.one_of(
        st.integers(min_value=0, max_value=topo.num_tiles - 1),
        st.sampled_from(_hot(topo)),
    )


@st.composite
def nocstar_streams(draw):
    tiles = draw(st.sampled_from([16, 64, 128, 1024]))
    hpc_max = draw(st.sampled_from([1, 2, 4, 16]))
    topo = MeshTopology(tiles)
    tile = _tiles(topo)
    ops = draw(
        st.lists(
            st.tuples(
                tile,
                tile,
                st.integers(min_value=0, max_value=24),  # out of order
                st.booleans(),  # speculative setup
                st.integers(min_value=0, max_value=4),  # 0: one-way,
                # else round trip: hold, release after this service time
            ),
            min_size=10,
            max_size=80,
        )
    )
    return tiles, hpc_max, ops


def _nocstar_variants(tiles, hpc_max):
    topo = MeshTopology(tiles)
    config = NocstarConfig(hpc_max=hpc_max)
    return (
        NocstarInterconnect(topo, config),
        NocstarInterconnect(topo, config, routes=shared_route_cache(tiles)),
    )


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(nocstar_streams())
def test_nocstar_matches_set_oracle(stream):
    tiles, hpc_max, ops = stream
    oracle = SetNocstarOracle(MeshTopology(tiles), hpc_max)
    live, routed = _nocstar_variants(tiles, hpc_max)
    for src, dst, now, speculative, service in ops:
        hold = service > 0
        want = oracle.send(src, dst, now, speculative_setup=speculative,
                           hold=hold)
        for network in (live, routed):
            got = network.send(src, dst, now, speculative_setup=speculative,
                               hold=hold)
            assert (got.ready, got.setup_retries, got.hops,
                    got.traversal_cycles) == (
                want.ready, want.setup_retries, want.hops,
                want.traversal_cycles)
            assert got.links == want.links
        if hold:
            at = want.ready + service + want.traversal_cycles
            oracle.release(want.links, at)
            for network in (live, routed):
                network.release(want.links, at)
    busy = oracle.link_busy_cycles()
    for network in (live, routed):
        assert network.link_busy_cycles() == busy
        for name in ("messages", "local_messages", "total_hops",
                     "total_setup_retries", "uncontended_messages",
                     "control_requests"):
            assert getattr(network, name) == getattr(oracle, name), name


@pytest.mark.parametrize("routed", [False, True])
def test_held_link_raises_like_the_oracle(routed):
    oracle = SetNocstarOracle(MeshTopology(16), 16)
    network = _nocstar_variants(16, 16)[routed]
    for ic in (oracle, network):
        held = ic.send(0, 3, now=0, hold=True)
        ic.send(4, 7, now=0)  # disjoint: fine while (0, 3) is held
        with pytest.raises(RuntimeError, match="held"):
            ic.send(1, 2, now=0)  # shares link (1, 2)
        ic.release(held.links, at=9)
        assert ic.send(1, 2, now=0).ready == 10
    assert network.link_busy_cycles() == oracle.link_busy_cycles()


@st.composite
def smart_streams(draw):
    tiles = draw(st.sampled_from([16, 64, 128, 1024]))
    hpc_max = draw(st.sampled_from([1, 2, 4, 16]))
    topo = MeshTopology(tiles)
    tile = _tiles(topo)
    ops = draw(
        st.lists(
            st.tuples(tile, tile, st.integers(min_value=0, max_value=12)),
            min_size=10,
            max_size=80,
        )
    )
    return tiles, hpc_max, ops


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(smart_streams())
def test_smart_matches_set_oracle(stream):
    tiles, hpc_max, ops = stream
    topo = MeshTopology(tiles)
    oracle = SetSmartOracle(topo, hpc_max)
    networks = (
        SmartNetwork(topo, hpc_max=hpc_max),
        SmartNetwork(topo, hpc_max=hpc_max, routes=shared_route_cache(tiles)),
    )
    for src, dst, now in ops:
        stops = oracle.premature_stops
        want = oracle.send(src, dst, now)
        for network in networks:
            before = network.premature_stops
            got = network.send(src, dst, now)
            assert (got.arrival, got.hops, got.queue_cycles) == tuple(want)
            assert (network.premature_stops - before
                    == oracle.premature_stops - stops)
    busy = oracle.link_busy_cycles()
    for network in networks:
        assert network.link_busy_cycles() == busy
        assert network.total_queue_cycles == oracle.total_queue_cycles


def test_fbfly_first_fit_over_express_links():
    fb = FlattenedButterfly(MeshTopology(16), narrow=True)
    first = fb.send(0, 15, now=0)
    second = fb.send(0, 15, now=0)  # same two express links, queued
    assert second.queue_cycles == 5 and second.arrival == first.arrival + 5
    early = fb.send(0, 3, now=0)  # (0, 3) is busy for cycles 1..10
    assert early.queue_cycles == 10
