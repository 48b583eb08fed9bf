"""The fabric's parent-pointer path walk against networkx BFS.

The oracle graph is built from the same :class:`FabricSpec` geometry,
and paths are taken with ``networkx.shortest_path`` on the full and on
the degraded graph. Hop counts, cable lengths and slacks must be
bit-equal: figure 1 prints them.
"""

import itertools

import pytest

from repro.network import Fabric, FabricSpec
from repro.network.slack import latency_for_fibre_distance

nx = pytest.importorskip("networkx")


def oracle_graph(s: FabricSpec):
    g = nx.Graph()
    g.add_node("core", kind="switch")
    for row in range(s.rows):
        g.add_node(f"row:{row}", kind="switch")
        g.add_edge(f"row:{row}", "core", cable_m=s.inter_row_cable_m)
    for rack in range(s.racks_per_row * s.rows):
        tor = f"tor:{rack}"
        g.add_node(tor, kind="switch")
        g.add_edge(tor, f"row:{rack // s.racks_per_row}",
                   cable_m=s.inter_rack_cable_m * (rack % s.racks_per_row + 1))
        for i in range(s.hosts_per_rack):
            g.add_node(f"host:{rack}:{i}", kind="host")
            g.add_edge(f"host:{rack}:{i}", tor, cable_m=s.intra_rack_cable_m)
    for rack in s.chassis_racks:
        g.add_node(f"chassis:{rack}", kind="chassis")
        g.add_edge(f"chassis:{rack}", f"tor:{rack}",
                   cable_m=s.intra_rack_cable_m)
    return g


def oracle_path(s: FabricSpec, g, host, chassis, failed=()):
    """(hops, cable_m, slack_s) by BFS, or ``None`` when cut off."""
    if host in failed or chassis in failed:
        return None
    degraded = g.copy()
    degraded.remove_nodes_from(failed)
    try:
        nodes = nx.shortest_path(degraded, host, chassis)
    except nx.NetworkXNoPath:
        return None
    hops = sum(1 for n in nodes[1:-1] if g.nodes[n]["kind"] == "switch")
    # Edge by edge in host-to-chassis order, as the fabric sums them.
    cable_m = sum(g.edges[a, b]["cable_m"] for a, b in zip(nodes, nodes[1:]))
    slack = (2 * s.nic_latency_s + hops * s.switch_hop_latency_s
             + latency_for_fibre_distance(cable_m))
    return hops, cable_m, slack


SPECS = [
    FabricSpec(rows=1, racks_per_row=8, chassis_racks=(0,)),
    FabricSpec(rows=1, racks_per_row=8, chassis_racks=(0, 3, 7)),
    FabricSpec(rows=2, racks_per_row=4, hosts_per_rack=2,
               chassis_racks=(1, 6), inter_rack_cable_m=1.7),
    FabricSpec(rows=3, racks_per_row=5, hosts_per_rack=3,
               chassis_racks=(0, 7, 14), intra_rack_cable_m=2.3,
               inter_row_cable_m=31.1),
]


def as_tuple(info):
    return None if info is None else (info.switch_hops, info.cable_m,
                                      info.slack_s)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"rows{s.rows}")
def test_every_pair_matches_bfs(spec):
    fabric, g = Fabric(spec), oracle_graph(spec)
    hosts = sorted(n for n, d in g.nodes(data=True) if d["kind"] == "host")
    chassis = sorted(n for n, d in g.nodes(data=True) if d["kind"] == "chassis")
    assert fabric.hosts() == hosts
    assert fabric.chassis() == chassis
    for h, c in itertools.product(hosts, chassis):
        assert as_tuple(fabric.path(h, c)) == oracle_path(spec, g, h, c)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"rows{s.rows}")
def test_degraded_paths_match_bfs(spec):
    fabric, g = Fabric(spec), oracle_graph(spec)
    last_rack = spec.rows * spec.racks_per_row - 1
    failure_sets = [
        [],
        ["core"],
        ["row:0"],
        [f"row:{spec.rows - 1}"],
        ["tor:0"],
        [f"tor:{spec.chassis_racks[-1]}"],
        [f"chassis:{spec.chassis_racks[0]}"],
        ["core", f"tor:{last_rack}"],
        [f"row:{spec.rows - 1}", f"chassis:{spec.chassis_racks[-1]}"],
    ]
    for failed in failure_sets:
        for h in fabric.hosts():
            survivors = []
            for c in fabric.chassis():
                want = oracle_path(spec, g, h, c, failed)
                got = fabric.path_with_failures(h, c, failed)
                assert as_tuple(got) == want, (h, c, failed)
                if want is not None:
                    survivors.append(c)
            assert [p.chassis for p in fabric.survivable(h, failed)] == survivors
