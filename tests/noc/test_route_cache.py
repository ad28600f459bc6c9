"""Property tests for the precomputed RouteCache tables.

The cache claims its tables are pure functions of the topology — every
entry, and every table-driven send, must agree with what
:class:`MeshTopology` computes live (``hops``/``xy_path``) and with the
set-based arbitration oracles; any injected link failure must bypass
the cache entirely (the fault-aware router wins the construction-time
dispatch).  Every System and every interconnect shares one cache per
tile count.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NocstarConfig
from repro.core.nocstar import NocstarInterconnect
from repro.faults.inject import FaultInjector
from repro.faults.models import FaultPlan
from repro.faults.routing import FaultAwareRouter
from repro.noc.mesh import ContentionFreeMesh
from repro.noc.route_cache import RouteCache, shared_route_cache
from repro.noc.smart import SmartNetwork
from repro.noc.topology import MeshTopology
from repro.obs import MetricsSink
from repro.sim import configs as cfg
from repro.sim.engine_vec import REFERENCE_ENV
from repro.sim.system import System

from tests.noc._occupancy_oracle import SetNocstarOracle, SetSmartOracle

tile_counts = st.integers(min_value=2, max_value=64)


def _pair(data, n):
    src = data.draw(st.integers(min_value=0, max_value=n - 1), label="src")
    dst = data.draw(st.integers(min_value=0, max_value=n - 1), label="dst")
    return src, dst


@settings(max_examples=40)
@given(tile_counts, st.data())
def test_cached_hops_and_paths_match_topology(n, data):
    topo = MeshTopology(n)
    cache = RouteCache(topo)
    src, dst = _pair(data, n)
    assert cache.hops[src][dst] == topo.hops(src, dst)
    path = cache.path(src, dst)
    assert list(path) == list(topo.xy_path(src, dst))
    assert len(path) == cache.hops[src][dst]
    # Memoised: the same tuple object comes back.
    assert cache.path(src, dst) is path


@settings(max_examples=30)
@given(tile_counts, st.integers(min_value=1, max_value=6), st.data())
def test_cached_mesh_send_equals_live_mesh_send(n, router_cycles, data):
    """The table-driven send equals ``hops * (tr + tw)`` computed live
    from the topology; the observed send walks the live XY path."""
    topo = MeshTopology(n)
    cache = RouteCache(topo)
    mesh = ContentionFreeMesh(topo, router_cycles=router_cycles, routes=cache)
    assert mesh.send.__func__ is ContentionFreeMesh.send
    observed = ContentionFreeMesh(
        topo, router_cycles=router_cycles, sink=MetricsSink(), routes=cache
    )
    assert observed.send.__func__ is ContentionFreeMesh._send_path
    src, dst = _pair(data, n)
    now = data.draw(st.integers(min_value=0, max_value=10_000), label="now")
    hops = topo.hops(src, dst)
    cycles_per_hop = router_cycles + 1
    got = mesh.send(src, dst, now)
    assert (got.arrival, got.hops, got.links) == (
        now + hops * cycles_per_hop, hops, ()
    )
    path = tuple(topo.xy_path(src, dst))
    assert observed.send(src, dst, now) == got._replace(links=path)
    assert observed.link_traversals == {link: 1 for link in path}
    table = cache.mesh_latency(cycles_per_hop)
    assert table[src][dst] == hops * cycles_per_hop


@settings(max_examples=30)
@given(tile_counts, st.integers(min_value=1, max_value=8), st.data())
def test_cached_smart_send_equals_live_smart_send(n, hpc_max, data):
    """One uncontended send per fresh network: the only difference from
    the set oracle (live ``xy_path`` routes) could be the route source."""
    topo = MeshTopology(n)
    src, dst = _pair(data, n)
    now = data.draw(st.integers(min_value=0, max_value=10_000), label="now")
    smart = SmartNetwork(topo, hpc_max=hpc_max, routes=RouteCache(topo))
    got = smart.send(src, dst, now)
    assert tuple(got[:3]) == tuple(
        SetSmartOracle(topo, hpc_max).send(src, dst, now)
    )
    assert got.links == tuple(topo.xy_path(src, dst))


@settings(max_examples=30)
@given(tile_counts, st.integers(min_value=1, max_value=8), st.data())
def test_cached_nocstar_send_equals_live_nocstar_send(n, hpc_max, data):
    topo = MeshTopology(n)
    config = NocstarConfig(hpc_max=hpc_max)
    cache = RouteCache(topo)
    src, dst = _pair(data, n)
    now = data.draw(st.integers(min_value=0, max_value=10_000), label="now")
    nocstar = NocstarInterconnect(topo, config=config, routes=cache)
    assert nocstar.send.__func__ is NocstarInterconnect.send
    got = nocstar.send(src, dst, now)
    want = SetNocstarOracle(topo, hpc_max).send(src, dst, now)
    assert (got.ready, got.hops, got.setup_retries, got.traversal_cycles,
            got.links) == tuple(want)
    # The derived cycle table is exactly the ceil-division of the
    # topology's hop count.
    hops = topo.hops(src, dst)
    table = cache.nocstar_cycles(hpc_max)
    assert table[src][dst] == -(-hops // hpc_max) == nocstar.traversal_cycles(
        hops
    )


@settings(max_examples=25)
@given(st.integers(min_value=4, max_value=36), st.data())
def test_dead_links_bypass_the_cache(n, data):
    """A LinkFailure beats the cache: dispatch goes to the fault-aware
    router, and arrivals follow its (possibly longer) detour path."""
    topo = MeshTopology(n)
    cache = RouteCache(topo)
    link = data.draw(
        st.sampled_from(sorted(topo.all_links())), label="dead_link"
    )
    plan = FaultPlan(num_tiles=n, failed_links=(link,))
    faults = FaultInjector(plan, topo)
    router = FaultAwareRouter(topo, [link])

    mesh = ContentionFreeMesh(topo, faults=faults, routes=cache)
    assert mesh.send.__func__ is ContentionFreeMesh._send_path
    assert mesh._route == faults.router.path
    smart = SmartNetwork(topo, faults=faults, routes=cache)
    assert smart._route == faults.router.path
    nocstar = NocstarInterconnect(topo, faults=faults, routes=cache)
    assert nocstar.send.__func__ is NocstarInterconnect._send_faulty

    src, dst = _pair(data, n)
    route = router.route(src, dst)
    if route is None:
        return  # partitioned pair; degradation paths are tested elsewhere
    traversal = mesh.send(src, dst, 0)
    assert traversal.hops == len(route)
    assert traversal.arrival == len(route) * mesh.cycles_per_hop
    assert link not in traversal.links
    # The detour is never shorter than the Manhattan distance (it can
    # be equal when another minimal path avoids the dead link).
    assert len(route) >= cache.hops[src][dst]


def test_shared_route_cache_is_per_size_singleton():
    a = shared_route_cache(16)
    b = shared_route_cache(16)
    c = shared_route_cache(32)
    assert a is b
    assert a is not c
    assert a.num_tiles == 16 and c.num_tiles == 32


def test_networks_default_to_the_shared_cache():
    topo = MeshTopology(16)
    shared = shared_route_cache(16)
    assert ContentionFreeMesh(topo).routes is shared
    assert SmartNetwork(topo).routes is shared
    assert NocstarInterconnect(topo).routes is shared


@pytest.mark.parametrize("reference", [False, True])
def test_system_routes_are_the_shared_cache(reference, monkeypatch):
    """The reference engine switch selects only the drive loop: the
    System and its interconnect read the same shared tables either way."""
    if reference:
        monkeypatch.setenv(REFERENCE_ENV, "1")
    else:
        monkeypatch.delenv(REFERENCE_ENV, raising=False)
    for config in (cfg.nocstar(16), cfg.distributed(16),
                   cfg.monolithic(16, noc=cfg.SMART)):
        system = System(config)
        assert system.routes is shared_route_cache(16)
        assert system.network.routes is system.routes
