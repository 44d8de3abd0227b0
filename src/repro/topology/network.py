"""System graphs (paper Definition 1).

A :class:`Network` is a graph of switches and processors.  Processors
attach to exactly one switch each through an implicit full-duplex
injection/ejection link pair; switches are joined by explicit
full-duplex links, and a pair of switches may be connected by more than
one link (Definition 1 allows parallel links, and the synthesis
methodology relies on them).

Link resources
--------------
The contention model counts *directed* channels.  Each physical entity
contributes tokens:

* ``("inj", p)`` — processor ``p``'s injection channel into its switch,
* ``("ej", p)`` — the ejection channel from the switch to ``p``,
* ``("link", link_id, 0)`` — the ``u -> v`` direction of a link,
* ``("link", link_id, 1)`` — the ``v -> u`` direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import TopologyError

LinkResource = Tuple


@dataclass(frozen=True)
class Link:
    """One full-duplex link between two switches."""

    link_id: int
    u: int
    v: int

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise TopologyError(f"link {self.link_id} is a self-loop on switch {self.u}")

    def other(self, switch: int) -> int:
        """The endpoint opposite ``switch``."""
        if switch == self.u:
            return self.v
        if switch == self.v:
            return self.u
        raise TopologyError(f"switch {switch} is not an endpoint of link {self.link_id}")

    def direction_from(self, switch: int) -> int:
        """0 when traversed ``u -> v``, 1 when traversed ``v -> u``."""
        if switch == self.u:
            return 0
        if switch == self.v:
            return 1
        raise TopologyError(f"switch {switch} is not an endpoint of link {self.link_id}")

    def resource(self, from_switch: int) -> LinkResource:
        """The directed channel token for traversal out of ``from_switch``."""
        return ("link", self.link_id, self.direction_from(from_switch))


def injection_resource(processor: int) -> LinkResource:
    """Directed channel token for a processor's injection link."""
    return ("inj", processor)


def ejection_resource(processor: int) -> LinkResource:
    """Directed channel token for a processor's ejection link."""
    return ("ej", processor)


class Network:
    """A mutable switch/processor graph with parallel links.

    Switches are integer ids managed by the network; processors are
    integers ``0..num_processors-1`` and each must be attached to
    exactly one switch before the network is used.
    """

    def __init__(self, num_processors: int) -> None:
        if num_processors <= 0:
            raise TopologyError(f"need at least one processor, got {num_processors}")
        self.num_processors = num_processors
        self._switch_procs: Dict[int, Set[int]] = {}
        self._proc_switch: Dict[int, int] = {}
        self._links: Dict[int, Link] = {}
        self._adj: Dict[int, Dict[int, List[int]]] = {}
        self._next_switch = 0
        self._next_link = 0

    # -- construction -------------------------------------------------

    def add_switch(self) -> int:
        """Create a new switch and return its id."""
        sid = self._next_switch
        self._next_switch += 1
        self._switch_procs[sid] = set()
        self._adj[sid] = {}
        return sid

    def attach_processor(self, processor: int, switch: int) -> None:
        """Attach ``processor`` to ``switch`` (each processor exactly once)."""
        self._require_switch(switch)
        if not 0 <= processor < self.num_processors:
            raise TopologyError(f"processor {processor} outside range(0, {self.num_processors})")
        if processor in self._proc_switch:
            raise TopologyError(f"processor {processor} is already attached")
        self._proc_switch[processor] = switch
        self._switch_procs[switch].add(processor)

    def add_link(self, u: int, v: int) -> int:
        """Add one full-duplex link between switches ``u`` and ``v``."""
        self._require_switch(u)
        self._require_switch(v)
        link = Link(self._next_link, u, v)
        self._next_link += 1
        self._links[link.link_id] = link
        self._adj[u].setdefault(v, []).append(link.link_id)
        self._adj[v].setdefault(u, []).append(link.link_id)
        return link.link_id

    def remove_link(self, link_id: int) -> None:
        """Remove a link by id."""
        link = self.link(link_id)
        del self._links[link_id]
        self._adj[link.u][link.v].remove(link_id)
        if not self._adj[link.u][link.v]:
            del self._adj[link.u][link.v]
        self._adj[link.v][link.u].remove(link_id)
        if not self._adj[link.v][link.u]:
            del self._adj[link.v][link.u]

    # -- queries ------------------------------------------------------

    @property
    def switches(self) -> Tuple[int, ...]:
        return tuple(sorted(self._switch_procs))

    @property
    def links(self) -> Tuple[Link, ...]:
        return tuple(self._links[i] for i in sorted(self._links))

    @property
    def num_switches(self) -> int:
        return len(self._switch_procs)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def link(self, link_id: int) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise TopologyError(f"no link with id {link_id}") from None

    def switch_of(self, processor: int) -> int:
        """The switch a processor is attached to."""
        try:
            return self._proc_switch[processor]
        except KeyError:
            raise TopologyError(f"processor {processor} is not attached to a switch") from None

    def processors_of(self, switch: int) -> FrozenSet[int]:
        """Processors attached to a switch."""
        self._require_switch(switch)
        return frozenset(self._switch_procs[switch])

    def neighbors(self, switch: int) -> Tuple[int, ...]:
        """Switches directly linked to ``switch`` (sorted, deduplicated)."""
        self._require_switch(switch)
        return tuple(sorted(self._adj[switch]))

    def links_between(self, u: int, v: int) -> Tuple[int, ...]:
        """Link ids joining two switches (possibly several, possibly none)."""
        self._require_switch(u)
        self._require_switch(v)
        return tuple(sorted(self._adj[u].get(v, ())))

    def degree(self, switch: int) -> int:
        """Port count of a switch: attached processors + incident links.

        This is the "node degree" used by the paper's design constraint
        (each processor port and each link port occupies one port of the
        switch).
        """
        self._require_switch(switch)
        n_links = sum(len(ids) for ids in self._adj[switch].values())
        return len(self._switch_procs[switch]) + n_links

    def max_degree(self) -> int:
        """Largest port count over all switches."""
        return max(self.degree(s) for s in self._switch_procs)

    def reachable_switches(self) -> Set[int]:
        """The switches reachable over links from the lowest-id switch
        (empty when the network has no switches)."""
        if not self._switch_procs:
            return set()
        start = min(self._switch_procs)
        seen = {start}
        frontier = [start]
        while frontier:
            for n in self._adj[frontier.pop()]:
                if n not in seen:
                    seen.add(n)
                    frontier.append(n)
        return seen

    def is_connected(self) -> bool:
        """Whether the switch graph is connected (full-duplex links make
        connectivity equivalent to strong connectivity)."""
        return bool(self._switch_procs) and len(self.reachable_switches()) == len(
            self._switch_procs
        )

    def validate(self) -> None:
        """Check the network is a usable system graph.

        Raises :class:`TopologyError` if any processor is unattached or
        the switch graph is disconnected.
        """
        missing = [p for p in range(self.num_processors) if p not in self._proc_switch]
        if missing:
            raise TopologyError(f"processors not attached to any switch: {missing}")
        if not self.is_connected():
            raise TopologyError("switch graph is not connected")

    def copy(self) -> "Network":
        """A deep, independent copy of this network."""
        dup = Network(self.num_processors)
        dup._next_switch = self._next_switch
        dup._next_link = self._next_link
        dup._switch_procs = {s: set(ps) for s, ps in self._switch_procs.items()}
        dup._proc_switch = dict(self._proc_switch)
        dup._links = dict(self._links)
        dup._adj = {s: {n: list(ids) for n, ids in nbrs.items()} for s, nbrs in self._adj.items()}
        return dup

    def describe(self) -> str:
        """Multi-line summary used by examples and reports."""
        lines = [
            f"network: {self.num_processors} processors, "
            f"{self.num_switches} switches, {self.num_links} links"
        ]
        for s in self.switches:
            procs = ",".join(str(p) for p in sorted(self._switch_procs[s]))
            nbrs = ", ".join(
                f"S{n}x{len(self._adj[s][n])}" for n in sorted(self._adj[s])
            )
            lines.append(f"  S{s}: procs [{procs}] links [{nbrs}] degree {self.degree(s)}")
        return "\n".join(lines)

    # -- internals ----------------------------------------------------

    def _require_switch(self, switch: int) -> None:
        if switch not in self._switch_procs:
            raise TopologyError(f"no switch with id {switch}")
