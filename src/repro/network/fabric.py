"""CDI fabric topologies: rack-, row- and cluster-scale.

Builds a tree of hosts, fabric switches and GPU chassis with
physically-motivated cable lengths, and derives the *slack* a given
host-chassis pairing experiences from the path: NIC costs at both
endpoints, per-switch hop latency, and fibre time-of-flight over the
accumulated cable length. This is how experiment configurations turn
"this GPU lives two racks away" into a per-CUDA-call delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .slack import SlackModel, latency_for_fibre_distance

__all__ = ["Scale", "FabricSpec", "Fabric", "PathInfo"]


class Scale(str, Enum):
    """Deployment scale of a CDI fabric (how far a chassis can serve)."""

    RACK = "rack"
    ROW = "row"
    CLUSTER = "cluster"


@dataclass(frozen=True)
class FabricSpec:
    """Geometry and component costs of a CDI fabric.

    Distances follow typical machine-room dimensions: ~2 m of cable
    within a rack, ~1.5 m between adjacent racks in a row, ~30 m
    between rows.
    """

    scale: Scale = Scale.ROW
    racks_per_row: int = 8
    rows: int = 1
    hosts_per_rack: int = 4
    chassis_racks: Tuple[int, ...] = (0,)
    intra_rack_cable_m: float = 2.0
    inter_rack_cable_m: float = 1.5
    inter_row_cable_m: float = 30.0
    nic_latency_s: float = 0.5e-6
    switch_hop_latency_s: float = 0.3e-6

    def __post_init__(self) -> None:
        if self.racks_per_row <= 0 or self.rows <= 0 or self.hosts_per_rack <= 0:
            raise ValueError("fabric dimensions must be positive")
        for r in self.chassis_racks:
            if not 0 <= r < self.racks_per_row * self.rows:
                raise ValueError(f"chassis rack {r} outside fabric")
        if self.scale is Scale.RACK and len(self.chassis_racks) < 1:
            raise ValueError("rack-scale fabric needs a chassis per served rack")


@dataclass(frozen=True)
class PathInfo:
    """Resolved host-to-chassis path characteristics."""

    host: str
    chassis: str
    switch_hops: int
    cable_m: float
    slack_s: float

    def slack_model(self) -> SlackModel:
        """A deterministic slack model for this path."""
        return SlackModel(self.slack_s)


class Fabric:
    """A populated CDI fabric tree.

    Node names: ``host:<rack>:<i>``, ``tor:<rack>`` (top-of-rack
    switch), ``row:<row>`` (row/spine switch), ``chassis:<rack>``,
    under one ``core`` switch. Each node but ``core`` records its
    parent and the ``cable_m`` of its uplink. Rack-scale paths go
    host->tor->chassis; row-scale adds the row switch; cluster-scale
    adds the core switch.
    """

    def __init__(self, spec: FabricSpec) -> None:
        self.spec = spec
        self._uplink: Dict[str, Tuple[str, float]] = {}
        self._hosts: List[str] = []
        self._chassis: List[str] = []
        self._build()

    # -- construction ----------------------------------------------------------
    def _build(self) -> None:
        s = self.spec
        up = self._uplink
        total_racks = s.racks_per_row * s.rows
        for row in range(s.rows):
            up[f"row:{row}"] = ("core", s.inter_row_cable_m)
        for rack in range(total_racks):
            row = rack // s.racks_per_row
            pos_in_row = rack % s.racks_per_row
            tor = f"tor:{rack}"
            up[tor] = (f"row:{row}", s.inter_rack_cable_m * (pos_in_row + 1))
            for i in range(s.hosts_per_rack):
                host = f"host:{rack}:{i}"
                up[host] = (tor, s.intra_rack_cable_m)
                self._hosts.append(host)
        for rack in s.chassis_racks:
            up[f"chassis:{rack}"] = (f"tor:{rack}", s.intra_rack_cable_m)
        self._hosts.sort()
        self._chassis = sorted({f"chassis:{r}" for r in s.chassis_racks})

    def _has(self, node: str) -> bool:
        return node == "core" or node in self._uplink

    def _ancestry(self, node: str) -> List[str]:
        """``node`` and its ancestors up to the core switch."""
        chain = [node]
        while node != "core":
            node = self._uplink[node][0]
            chain.append(node)
        return chain

    def _resolve(
        self, host: str, chassis: str, failed: Sequence[str] = ()
    ) -> Optional[PathInfo]:
        """Walk the tree path host -> lowest common ancestor -> chassis.

        Returns ``None`` when a ``failed`` node lies on the path.
        """
        up, down = self._ancestry(host), self._ancestry(chassis)
        while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
            up.pop()
            down.pop()
        down.reverse()
        if not set(failed).isdisjoint(up + down):
            return None
        # Every interior node of a tree path is a switch.
        switch_hops = max(0, len(up) + len(down) - 3)
        # Summed edge by edge in host-to-chassis order: the float must
        # not depend on how the walk found the path.
        cable_m = sum(
            [self._uplink[n][1] for n in up[:-1]]
            + [self._uplink[n][1] for n in down[1:]]
        )
        slack = (
            2 * self.spec.nic_latency_s
            + switch_hops * self.spec.switch_hop_latency_s
            + latency_for_fibre_distance(cable_m)
        )
        return PathInfo(
            host=host,
            chassis=chassis,
            switch_hops=switch_hops,
            cable_m=cable_m,
            slack_s=slack,
        )

    # -- queries ---------------------------------------------------------------
    def hosts(self) -> List[str]:
        """All host node names."""
        return list(self._hosts)

    def chassis(self) -> List[str]:
        """All GPU chassis node names."""
        return list(self._chassis)

    def path(self, host: str, chassis: str) -> PathInfo:
        """Resolve the host-to-chassis path and its slack.

        Slack = 2 NIC traversals + hops * switch latency + fibre
        time-of-flight over the path's total cable length (one-way),
        matching the paper's Figure 1 decomposition.
        """
        if not self._has(host):
            raise KeyError(f"unknown host {host!r}")
        if not self._has(chassis):
            raise KeyError(f"unknown chassis {chassis!r}")
        info = self._resolve(host, chassis)
        assert info is not None
        return info

    def nearest_chassis(self, host: str) -> PathInfo:
        """The minimum-slack chassis reachable from ``host``."""
        paths = [self.path(host, c) for c in self.chassis()]
        if not paths:
            raise ValueError("fabric has no chassis")
        return min(paths, key=lambda p: p.slack_s)

    def worst_case_slack(self) -> float:
        """Maximum slack over every host-chassis pair."""
        return max(
            self.path(h, c).slack_s for h in self.hosts() for c in self.chassis()
        )

    # -- degraded operation ---------------------------------------------------------
    def path_with_failures(
        self, host: str, chassis: str, failed: Sequence[str]
    ) -> Optional[PathInfo]:
        """The path (and slack) when fabric components are down.

        ``failed`` lists switch/chassis node names removed from the
        topology (e.g. ``["row:0"]``). Returns ``None`` if no path
        survives — the composition must be re-placed on another
        chassis. The fabric is a tree, so removing nodes never opens a
        detour: the path survives exactly when no failed node lies on
        it. Degraded-mode operation is a deployment question the
        paper's future work raises.
        """
        for f in failed:
            if not self._has(f):
                raise KeyError(f"unknown fabric component {f!r}")
            if f == host or f == chassis:
                return None
        if not (self._has(host) and self._has(chassis)):
            return None
        return self._resolve(host, chassis, failed)

    def survivable(
        self, host: str, failed: Sequence[str]
    ) -> List[PathInfo]:
        """All chassis still reachable from ``host`` under failures."""
        paths = []
        for c in self.chassis():
            p = self.path_with_failures(host, c, failed)
            if p is not None:
                paths.append(p)
        return paths
