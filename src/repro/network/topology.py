"""Edge topologies.

The paper family's deployment is a star: each end device reaches every edge
server over its own access link (possibly with different bandwidths per
server — a nearby AP vs. a metro backhaul).  :class:`StarTopology` stores the
directed device->server links and answers the optimizer's only topology
question: "what link does task i use if assigned to server j?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.network.link import Link


@dataclass
class StarTopology:
    """Device->server access links.

    Construct either with an explicit ``links`` mapping
    ``(device_name, server_name) -> Link`` or via :meth:`uniform`.
    """

    device_names: List[str]
    server_names: List[str]
    links: Dict[Tuple[str, str], Link] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.device_names or not self.server_names:
            raise ConfigError("topology needs at least one device and one server")
        dev_set = set(self.device_names)
        srv_set = set(self.server_names)
        if len(dev_set) != len(self.device_names):
            raise ConfigError("duplicate device names")
        if len(srv_set) != len(self.server_names):
            raise ConfigError("duplicate server names")
        # set-based endpoint checks: the link table has devices × servers
        # entries, so per-entry list scans would make construction quadratic
        # in the device count (minutes at 10k+ devices)
        for (d, s) in self.links:
            if d not in dev_set or s not in srv_set:
                raise ConfigError(f"link ({d},{s}) references unknown endpoint")
        # keys are unique and all within devices × servers, so a simple count
        # proves completeness; the pair sweep runs only to name the gap
        if len(self.links) != len(self.device_names) * len(self.server_names):
            missing = [
                (d, s)
                for d in self.device_names
                for s in self.server_names
                if (d, s) not in self.links
            ]
            raise ConfigError(f"missing links for pairs: {missing[:5]}...")
        # per-server link row shared by every device (uniform topologies);
        # set by :meth:`uniform`, consumed by the affinity index
        self._uniform_row: Optional[Tuple[Link, ...]] = None
        self._row_cache: Dict[str, Tuple[int, ...]] = {}

    @property
    def is_row_uniform(self) -> bool:
        """True when every device shares one per-server link row.

        Only construction through :meth:`uniform` asserts this (provenance,
        not inspection); explicitly-built topologies answer False even if
        their rows happen to coincide.
        """
        return self._uniform_row is not None

    def row_key(self, device: str) -> Tuple[int, ...]:
        """Hashable fingerprint of ``device``'s per-server link row.

        Two devices with equal ``row_key`` see identical :class:`Link`
        objects on every server, so any per-(device, server) latency screen
        may share their results.  Uniform topologies answer a shared
        constant in O(1); explicit topologies fall back to the O(servers)
        id-tuple, memoized per device.
        """
        if self._uniform_row is not None:
            return ()
        key = self._row_cache.get(device)
        if key is None:
            key = tuple(id(self.links[(device, s)]) for s in self.server_names)
            self._row_cache[device] = key
        return key

    @classmethod
    def uniform(
        cls,
        device_names: Iterable[str],
        server_names: Iterable[str],
        link: Link,
        per_server_scale: Optional[Mapping[str, float]] = None,
    ) -> "StarTopology":
        """Same access link everywhere, optionally scaled per server."""
        devices = list(device_names)
        servers = list(server_names)
        scale = dict(per_server_scale or {})
        row = [
            link.scaled(scale[s]) if scale.get(s, 1.0) != 1.0 else link
            for s in servers
        ]
        links = {(d, s): l for d in devices for s, l in zip(servers, row)}
        topo = cls(devices, servers, links)
        # every device shares this per-server row by construction — record
        # the provenance so row_key() answers in O(1) instead of O(servers)
        topo._uniform_row = tuple(row)
        return topo

    def link(self, device: str, server: str) -> Link:
        """The access link used when ``device`` offloads to ``server``."""
        try:
            return self.links[(device, server)]
        except KeyError:
            raise ConfigError(f"no link between {device!r} and {server!r}") from None

    def with_link(self, device: str, server: str, link: Link) -> "StarTopology":
        """A copy with one link replaced (dynamic-bandwidth experiments)."""
        new_links = dict(self.links)
        new_links[(device, server)] = link
        return StarTopology(list(self.device_names), list(self.server_names), new_links)

    def scale_all(self, factor: float) -> "StarTopology":
        """A copy with every link's bandwidth scaled by ``factor``."""
        return StarTopology(
            list(self.device_names),
            list(self.server_names),
            {k: l.scaled(factor) for k, l in self.links.items()},
        )
