"""Mesh network models."""

from repro.noc.mesh import ContentionFreeMesh
from repro.noc.topology import MeshTopology
from repro.obs import MetricsSink


def test_contention_free_latency_deterministic():
    mesh = ContentionFreeMesh(MeshTopology(16))
    t = mesh.send(0, 15, now=100)
    assert t.hops == 6
    assert t.arrival == 100 + 12


def test_contention_free_local_is_free():
    mesh = ContentionFreeMesh(MeshTopology(16))
    assert mesh.send(3, 3, now=5).arrival == 5


def test_contention_free_counts_traffic():
    mesh = ContentionFreeMesh(MeshTopology(16))
    mesh.send(0, 1, 0)
    mesh.send(0, 2, 0)
    assert mesh.messages == 2
    assert mesh.total_hops == 3


def test_traversal_reports_links():
    # Observed sends route over explicit link paths.
    mesh = ContentionFreeMesh(MeshTopology(16), sink=MetricsSink())
    t = mesh.send(0, 5, 0)
    assert len(t.links) == t.hops == 2
