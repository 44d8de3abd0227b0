"""Simulated-annealing switch/tile placement.

Jointly assigns switches to corner lattice points and processors to
tiles (each tile touching its switch's corner), minimizing total link
area.  Infeasible intermediate states are allowed during the search and
priced with a large penalty; the returned floorplan reports whether the
final state is feasible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.errors import FloorplanError
from repro.floorplan.tiles import Cell, Corner, TileGrid, manhattan
from repro.obs import DISABLED, Observability
from repro.synthesis.annealing import AnnealSchedule, SimulatedAnnealing
from repro.topology.network import Network

# Each adjacency violation costs more than any single link could save.
_PENALTY = 1000.0

# Independent annealing restarts per placement call.
_RESTARTS = 8

# The cooling schedule of every restart.
_SCHEDULE = AnnealSchedule(initial_temperature=8.0, cooling=0.96, steps=5000)


@dataclass(frozen=True)
class Floorplan:
    """A placed network.

    Attributes:
        grid: the tile grid.
        switch_corner: switch id -> corner lattice point.
        processor_cell: processor id -> tile cell.
        link_costs: link id -> Manhattan tile distance of its endpoints.
        feasible: every processor's tile touches its switch's corner and
            no tile is shared.
    """

    grid: TileGrid
    switch_corner: Dict[int, Corner]
    processor_cell: Dict[int, Cell]
    link_costs: Dict[int, int]
    feasible: bool

    @property
    def total_link_area(self) -> int:
        return sum(self.link_costs.values())

    def link_delays(self) -> Dict[int, int]:
        """Per-link cycle delays for the simulator (minimum one clock)."""
        return {lid: max(1, cost) for lid, cost in self.link_costs.items()}

    def render(self) -> str:
        """ASCII sketch of the floorplan, Figure 6 style.

        Tiles are drawn as a grid of processor ids; switch corner
        positions are listed below (corner lattice coordinates), since
        several switches can share a corner region.
        """
        width = max(3, max((len(str(p)) for p in self.processor_cell), default=1) + 1)
        by_cell = {cell: proc for proc, cell in self.processor_cell.items()}
        lines = []
        for j in range(self.grid.height - 1, -1, -1):
            row = []
            for i in range(self.grid.width):
                proc = by_cell.get((i, j))
                row.append((f"P{proc}" if proc is not None else ".").rjust(width))
            lines.append(" ".join(row))
        lines.append("")
        for s in sorted(self.switch_corner):
            x, y = self.switch_corner[s]
            lines.append(f"S{s} at corner ({x},{y})")
        return "\n".join(lines)


@dataclass
class _Placement:
    """One annealing state and its cached cost.

    ``area`` and ``violations`` equal :func:`_link_area` and
    :func:`_violations` of the state.  :class:`_Moves` keeps them
    current; :func:`_repair` does not, so after the anneal only the
    from-scratch functions are read.
    """

    switch_corner: Dict[int, Corner]
    processor_cell: Dict[int, Cell]
    area: int = 0
    violations: int = 0


def _violations(net: Network, grid: TileGrid, p: _Placement) -> int:
    count = 0
    for proc in range(net.num_processors):
        corner = p.switch_corner[net.switch_of(proc)]
        if not grid.touches(p.processor_cell[proc], corner):
            count += 1
    return count


def _link_area(net: Network, p: _Placement) -> int:
    return sum(
        manhattan(p.switch_corner[link.u], p.switch_corner[link.v])
        for link in net.links
    )


class _Moves:
    """The annealer's energy and move set for one network on one grid.

    The lookup tables are built once per :func:`place` call.  A move
    copies the placement, changes it, and re-prices only what it
    touched: the links incident to a moved switch, and the processors
    whose tile changed or whose switch's corner changed.  Moves draw
    the same random numbers, in the same order, over the same sorted
    lists as pricing every state from scratch would, and every cost is
    an integer, so the anneal takes the identical path.
    """

    def __init__(self, net: Network, grid: TileGrid) -> None:
        self.num_processors = net.num_processors
        self.switches = net.switches
        self.corners = grid.corners()
        self.cells = grid.cells()
        self.corner_tiles = {c: sorted(grid.corner_cells(c)) for c in self.corners}
        self.switch_of = [net.switch_of(p) for p in range(net.num_processors)]
        self.procs_of = {s: sorted(net.processors_of(s)) for s in self.switches}
        # Far endpoint of every link at each switch, once per parallel link.
        self.link_ends: Dict[int, List[int]] = {s: [] for s in self.switches}
        for link in net.links:
            self.link_ends[link.u].append(link.v)
            self.link_ends[link.v].append(link.u)

    @staticmethod
    def energy(p: _Placement) -> float:
        return p.area + _PENALTY * p.violations

    def neighbor(self, p: _Placement, rng: random.Random) -> _Placement:
        """A new placement one random move away; ``p`` is not mutated."""
        q = _Placement(
            dict(p.switch_corner), dict(p.processor_cell), p.area, p.violations
        )
        switch: Optional[int] = None
        moved: Iterable[int] = ()
        roll = rng.random()
        if roll < 0.35:
            # Cluster move: relocate a switch together with its
            # processors onto the tiles around a new corner, swapping
            # cells with the displaced occupants.
            switch = rng.choice(self.switches)
            moved = self._move_cluster(q, switch, rng.choice(self.corners), rng)
        elif roll < 0.6:
            switch = rng.choice(self.switches)
            q.switch_corner[switch] = rng.choice(self.corners)
        elif roll < 0.9 and self.num_processors >= 2:
            a, b = rng.sample(range(self.num_processors), 2)
            q.processor_cell[a], q.processor_cell[b] = (
                q.processor_cell[b],
                q.processor_cell[a],
            )
            moved = (a, b)
        else:
            proc = rng.randrange(self.num_processors)
            used = set(q.processor_cell.values())
            free = [c for c in self.cells if c not in used]
            if free:
                q.processor_cell[proc] = rng.choice(free)
                moved = (proc,)
        self._reprice(p, q, switch, moved)
        return q

    def _move_cluster(
        self, p: _Placement, switch: int, corner: Corner, rng: random.Random
    ) -> List[int]:
        """Relocate a switch and its processors around ``corner``, swapping
        cells with the current occupants; returns the occupants displaced."""
        p.switch_corner[switch] = corner
        target_cells = list(self.corner_tiles[corner])
        rng.shuffle(target_cells)
        cell_owner = {cell: proc for proc, cell in p.processor_cell.items()}
        displaced = []
        for proc, target in zip(self.procs_of[switch], target_cells):
            old_cell = p.processor_cell[proc]
            if old_cell == target:
                continue
            other = cell_owner.get(target)
            p.processor_cell[proc] = target
            cell_owner[target] = proc
            if other is not None and other != proc:
                p.processor_cell[other] = old_cell
                cell_owner[old_cell] = other
                displaced.append(other)
            else:
                del cell_owner[old_cell]
        return displaced

    def _reprice(
        self,
        p: _Placement,
        q: _Placement,
        switch: Optional[int],
        moved: Iterable[int],
    ) -> None:
        """Update ``q``'s cached cost from ``p``'s, given that ``q``
        differs only in ``switch``'s corner and in the tiles of
        ``moved`` and of ``switch``'s processors."""
        touched = set(moved)
        if switch is not None:
            touched.update(self.procs_of[switch])
            ox, oy = p.switch_corner[switch]
            nx, ny = q.switch_corner[switch]
            delta = 0
            for other in self.link_ends[switch]:
                x, y = q.switch_corner[other]
                delta += abs(nx - x) + abs(ny - y) - abs(ox - x) - abs(oy - y)
            q.area += delta
        # Tile (i, j) touches corner (x, y) iff 0 <= x - i <= 1 and
        # 0 <= y - j <= 1, i.e. TileGrid.touches for an in-grid tile.
        delta = 0
        for proc in touched:
            s = self.switch_of[proc]
            i, j = q.processor_cell[proc]
            x, y = q.switch_corner[s]
            if not (0 <= x - i <= 1 and 0 <= y - j <= 1):
                delta += 1
            i, j = p.processor_cell[proc]
            x, y = p.switch_corner[s]
            if not (0 <= x - i <= 1 and 0 <= y - j <= 1):
                delta -= 1
        q.violations += delta


def place(
    network: Network,
    grid: Optional[TileGrid] = None,
    seed: int = 0,
    obs: Optional[Observability] = None,
) -> Floorplan:
    """Place a network on a tile grid, minimizing link area.

    Raises :class:`FloorplanError` when the grid cannot hold the
    processors; returns a (possibly infeasible) best-effort floorplan
    otherwise — callers should check :attr:`Floorplan.feasible`.
    """
    network.validate()
    obs = obs if obs is not None else DISABLED
    if grid is None:
        grid = _default_grid(network.num_processors)
    if grid.num_cells < network.num_processors:
        raise FloorplanError(
            f"{grid.width}x{grid.height} grid cannot hold "
            f"{network.num_processors} processors"
        )
    moves = _Moves(network, grid)
    best: Optional[_Placement] = None
    best_key = None
    for restart in range(_RESTARTS):
        rng = random.Random(seed * _RESTARTS + restart)
        initial = _initial_placement(network, grid, rng)
        sa = SimulatedAnnealing(
            moves.energy,
            moves.neighbor,
            _SCHEDULE,
            seed=seed * _RESTARTS + restart,
            obs=obs,
            label="floorplan.anneal",
        )
        with obs.tracer.span("floorplan.restart", restart=restart):
            candidate, _ = sa.run(initial)
        if _violations(network, grid, candidate) > 0:
            # Local repair only when the annealer left violations; a
            # feasible placement must not be perturbed.
            _repair(network, grid, candidate)
        key = (
            _violations(network, grid, candidate),
            _link_area(network, candidate),
        )
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    assert best is not None  # _RESTARTS >= 1
    if obs.metrics.enabled:
        obs.metrics.gauge("floorplan.link_area").set(_link_area(network, best))
        obs.metrics.gauge("floorplan.violations").set(
            _violations(network, grid, best)
        )
    link_costs = {
        link.link_id: manhattan(
            best.switch_corner[link.u], best.switch_corner[link.v]
        )
        for link in network.links
    }
    return Floorplan(
        grid=grid,
        switch_corner=dict(best.switch_corner),
        processor_cell=dict(best.processor_cell),
        link_costs=link_costs,
        feasible=_violations(network, grid, best) == 0,
    )


def _default_grid(num_processors: int) -> TileGrid:
    from repro.topology.builders import grid_dims

    w, h = grid_dims(num_processors)
    return TileGrid(width=w, height=h)


def _initial_placement(net: Network, grid: TileGrid, rng: random.Random) -> _Placement:
    """Cluster-aware start: place each switch's processors around it."""
    cells = grid.cells()
    rng.shuffle(cells)
    proc_cell: Dict[int, Cell] = {}
    switch_corner: Dict[int, Corner] = {}
    free = list(cells)
    for s in net.switches:
        procs = sorted(net.processors_of(s))
        if not procs:
            switch_corner[s] = rng.choice(grid.corners())
            continue
        anchor = free[0] if free else rng.choice(grid.cells())
        corner = (anchor[0] + 1 if anchor[0] + 1 <= grid.width else anchor[0], anchor[1] + 1 if anchor[1] + 1 <= grid.height else anchor[1])
        switch_corner[s] = corner
        nearby = sorted(free, key=lambda c: manhattan((c[0], c[1]), corner))
        for proc, cell in zip(procs, nearby):
            proc_cell[proc] = cell
            free.remove(cell)
    # Any processor still unplaced (more procs than nearby cells) takes
    # whatever is left.
    for proc in range(net.num_processors):
        if proc not in proc_cell:
            proc_cell[proc] = free.pop()
    p = _Placement(switch_corner=switch_corner, processor_cell=proc_cell)
    p.area = _link_area(net, p)
    p.violations = _violations(net, grid, p)
    return p


def _repair(net: Network, grid: TileGrid, p: _Placement) -> None:
    """Greedy post-pass over the switch corners; processors stay put.

    Each switch with processors moves to the corner its processors'
    tiles touch most often, ties going to the least total Manhattan
    distance to those tiles, then to the first such corner in
    :meth:`TileGrid.corners` order.  The cached cost of ``p`` is not
    updated.
    """
    for s in net.switches:
        procs = sorted(net.processors_of(s))
        if not procs:
            continue
        best_corner = p.switch_corner[s]
        best_score = None
        for corner in grid.corners():
            touching = sum(
                1 for proc in procs if grid.touches(p.processor_cell[proc], corner)
            )
            dist = sum(
                manhattan(
                    corner,
                    (
                        p.processor_cell[proc][0],
                        p.processor_cell[proc][1],
                    ),
                )
                for proc in procs
            )
            score = (-touching, dist)
            if best_score is None or score < best_score:
                best_score = score
                best_corner = corner
        p.switch_corner[s] = best_corner
