"""Topologies: named links and the paths flows take across them.

A :class:`Topology` is deliberately path-based rather than graph-based —
the fluid model needs to know which links each flow loads, not how
routing chose them, so a topology is only its named links and each
flow's ordered list of them. Nothing here routes: a caller that wants
shortest-path routing derives the paths itself and passes them to
:meth:`Topology.add_flow`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.link import Link


@dataclass
class Topology:
    """Named links plus each flow's ordered link path."""

    links: dict[str, Link] = field(default_factory=dict)
    paths: list[list[str]] = field(default_factory=list)

    def add_link(self, name: str, link: Link) -> "Topology":
        if not name:
            raise ValueError("link name must be non-empty")
        if name in self.links:
            raise ValueError(f"duplicate link name {name!r}")
        self.links[name] = link
        return self

    def add_flow(self, path: list[str]) -> int:
        """Register a flow's path; returns the flow index."""
        if not path:
            raise ValueError("a flow path must traverse at least one link")
        for name in path:
            if name not in self.links:
                raise ValueError(f"path references unknown link {name!r}")
        if len(set(path)) != len(path):
            raise ValueError("a path may not repeat a link")
        self.paths.append(list(path))
        return len(self.paths) - 1

    @property
    def n_flows(self) -> int:
        return len(self.paths)

    def flows_through(self, link_name: str) -> list[int]:
        """Indices of flows whose path includes ``link_name``."""
        if link_name not in self.links:
            raise ValueError(f"unknown link {link_name!r}")
        return [i for i, path in enumerate(self.paths) if link_name in path]

    def base_rtt_of(self, flow: int) -> float:
        """A flow's propagation RTT: the sum of its links' base RTTs."""
        return sum(self.links[name].base_rtt for name in self.paths[flow])

    def validate(self) -> None:
        """Raise unless every flow path is non-empty and resolvable."""
        if not self.links:
            raise ValueError("topology has no links")
        if not self.paths:
            raise ValueError("topology has no flows")


# ----------------------------------------------------------------------
# Builders for the classic shapes
# ----------------------------------------------------------------------
def single_link(link: Link, n_flows: int) -> Topology:
    """All flows across one bottleneck — the paper's base model."""
    if n_flows <= 0:
        raise ValueError(f"n_flows must be positive, got {n_flows}")
    topo = Topology().add_link("bottleneck", link)
    for _ in range(n_flows):
        topo.add_flow(["bottleneck"])
    return topo


def dumbbell(access: Link, bottleneck: Link, n_pairs: int) -> Topology:
    """n sender/receiver pairs sharing one bottleneck behind access links.

    Each flow crosses its own access link plus the shared bottleneck.
    """
    if n_pairs <= 0:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    topo = Topology().add_link("bottleneck", bottleneck)
    for i in range(n_pairs):
        topo.add_link(f"access-{i}", access)
        topo.add_flow([f"access-{i}", "bottleneck"])
    return topo


def parking_lot(link: Link, n_hops: int) -> Topology:
    """The classic parking lot: one long flow vs one short flow per hop.

    Flow 0 traverses all ``n_hops`` links; flow ``i`` (i >= 1) traverses
    only hop ``i - 1``. The long flow pays both a longer RTT and exposure
    to every bottleneck — the canonical multi-link fairness stressor.
    """
    if n_hops < 2:
        raise ValueError(f"parking lot needs at least 2 hops, got {n_hops}")
    topo = Topology()
    hop_names = [f"hop-{i}" for i in range(n_hops)]
    for name in hop_names:
        topo.add_link(name, link)
    topo.add_flow(hop_names)  # the long flow
    for name in hop_names:
        topo.add_flow([name])  # one short flow per hop
    return topo
