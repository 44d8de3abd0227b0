"""Simulated-annealing switch/tile placement.

Jointly assigns switches to corner lattice points and processors to
tiles (each tile touching its switch's corner), minimizing total link
area.  Infeasible intermediate states are allowed during the search and
priced with a large penalty; the returned floorplan reports whether the
final state is feasible.

Each restart anneals one placement in place (:func:`_anneal`): a
proposal changes the live lists, re-prices only what it touched, and is
reverted if the Metropolis test rejects it; the state is copied only
when it becomes a new strict best.  Every proposal draws the same
random numbers, in the same order, over sequences of the same lengths
as pricing a fresh copy of the state would, and every cost is an
integer, so the search takes one fixed path per seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import FloorplanError
from repro.floorplan.tiles import Cell, Corner, TileGrid, manhattan
from repro.obs import DISABLED, Observability
from repro.synthesis.annealing import AnnealSchedule
from repro.topology.network import Network

# Each adjacency violation costs more than any single link could save.
_PENALTY = 1000.0

# Independent annealing restarts per placement call.
_RESTARTS = 8

# The cooling schedule of every restart.
_SCHEDULE = AnnealSchedule(initial_temperature=8.0, cooling=0.96, steps=5000)

# Metric names: ``.accepted``, ``.accepted_worse`` and ``.rejected``
# count proposals; ``.temperature`` and ``.energy`` hold one point per
# temperature level.
_LABEL = "floorplan.anneal"


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
    """A placement keyed by switch and processor id, with its cost.

    ``area`` and ``violations`` equal :func:`_link_area` and
    :func:`_violations` of the state when :func:`_initial_placement`
    returns it; :func:`_repair` does not update them, so after the
    anneal only the from-scratch functions are read.
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


class _Tables:
    """Lookup tables of one network on one grid, built once per
    :func:`place` call.

    The annealer works on integers: switches are numbered by their
    position in ``net.switches``, corners by their position in
    :meth:`TileGrid.corners` and tiles by their position in
    :meth:`TileGrid.cells`; processors keep their ids.
    """

    def __init__(self, net: Network, grid: TileGrid) -> None:
        self.switches = net.switches
        self.index = {s: i for i, s in enumerate(self.switches)}
        self.num_processors = net.num_processors
        self.corners = grid.corners()
        self.cells = grid.cells()
        self.corner_index = {k: i for i, k in enumerate(self.corners)}
        self.cell_index = {c: i for i, c in enumerate(self.cells)}
        # Each corner's tiles in sorted (i, j) order, as tile indices.
        self.corner_tiles = [
            [self.cell_index[c] for c in sorted(grid.corner_cells(k))]
            for k in self.corners
        ]
        # dist[k][l]: link area between corners k and l.
        self.dist = [[manhattan(k, l) for l in self.corners] for k in self.corners]
        # bad[k][c]: 1 when tile c does not touch corner k, else 0.
        self.bad = [
            [0 if 0 <= x - i <= 1 and 0 <= y - j <= 1 else 1 for i, j in self.cells]
            for x, y in self.corners
        ]
        self.switch_of = [self.index[net.switch_of(p)] for p in range(net.num_processors)]
        self.procs_of = [sorted(net.processors_of(s)) for s in self.switches]
        # Far endpoint of every link at each switch, once per parallel link.
        self.link_ends: List[List[int]] = [[] for _ in self.switches]
        for link in net.links:
            u, v = self.index[link.u], self.index[link.v]
            self.link_ends[u].append(v)
            self.link_ends[v].append(u)

    def live(self, p: _Placement) -> "_Live":
        """``p`` in this numbering, ready to anneal."""
        cell = [self.cell_index[p.processor_cell[proc]] for proc in range(self.num_processors)]
        owner = [-1] * len(self.cells)
        for proc, c in enumerate(cell):
            owner[c] = proc
        return _Live(
            corner=[self.corner_index[p.switch_corner[s]] for s in self.switches],
            cell=cell,
            owner=owner,
            area=p.area,
            violations=p.violations,
        )

    def placement(self, like: _Placement, corner: List[int], cell: List[int]) -> _Placement:
        """``corner`` and ``cell`` as a :class:`_Placement` whose dicts
        have ``like``'s key order (the floorplan records follow it)."""
        index, corners, cells = self.index, self.corners, self.cells
        return _Placement(
            switch_corner={s: corners[corner[index[s]]] for s in like.switch_corner},
            processor_cell={proc: cells[cell[proc]] for proc in like.processor_cell},
        )


@dataclass
class _Live:
    """The state one restart anneals in place, in :class:`_Tables`'
    numbering.

    Attributes:
        corner: switch -> corner.
        cell: processor -> tile.
        owner: tile -> processor, or -1 for a free tile.
        area, violations: :func:`_link_area` and :func:`_violations` of
            the state.
    """

    corner: List[int]
    cell: List[int]
    owner: List[int]
    area: int
    violations: int


# What a rejected proposal must undo.
_CLUSTER, _SWITCH, _SWAP, _FREE, _NOTHING = range(5)


def _anneal(
    t: _Tables,
    live: _Live,
    rng: random.Random,
    schedule: AnnealSchedule,
    obs: Observability,
) -> Tuple[List[int], List[int]]:
    """Anneal ``live`` in place; returns copies of the corners and tiles
    of the best state visited (the first to reach the least energy)."""
    corner, cell, owner = live.corner, live.cell, live.owner
    area, violations = live.area, live.violations
    corner_tiles, dist, bad = t.corner_tiles, t.dist, t.bad
    switch_of, procs_of, link_ends = t.switch_of, t.procs_of, t.link_ends
    num_procs = t.num_processors
    proc_list = list(range(num_procs))
    switch_list = list(range(len(t.switches)))
    corner_list = list(range(len(t.corners)))
    tile_list = list(range(len(t.cells)))
    # A tile is free only when the grid has more tiles than processors.
    spare = len(tile_list) > num_procs
    draw = rng.random
    choice = rng.choice
    exp = math.exp

    cur_e = area + _PENALTY * violations
    best_e = cur_e
    best = (corner[:], cell[:])
    temperature = schedule.initial_temperature
    cooling = schedule.cooling
    per_level = schedule.moves_per_temperature
    record = obs.metrics.enabled
    if record:
        temp_series = obs.metrics.series(f"{_LABEL}.temperature")
        energy_series = obs.metrics.series(f"{_LABEL}.energy")
    rejected = worse = 0
    for step in range(1, schedule.steps + 1):
        d_area = d_viol = 0
        roll = draw()
        if roll < 0.35:
            # Cluster move: relocate a switch together with its
            # processors onto the tiles around a new corner, swapping
            # tiles with the displaced occupants.
            kind = _CLUSTER
            s = choice(switch_list)
            new = choice(corner_list)
            targets = corner_tiles[new][:]
            rng.shuffle(targets)
            procs = procs_of[s]
            targets = targets[: len(procs)]
            # Every processor whose tile or corner can change: the
            # switch's own, and the other occupants of the target tiles.
            saved = [(p, cell[p]) for p in procs]
            for c in targets:
                q = owner[c]
                if q >= 0 and switch_of[q] != s:
                    saved.append((q, c))
            for p, c in saved:
                d_viol -= bad[corner[switch_of[p]]][c]
            old = corner[s]
            corner[s] = new
            d_new, d_old = dist[new], dist[old]
            for o in link_ends[s]:
                d_area += d_new[corner[o]] - d_old[corner[o]]
            for p, c in zip(procs, targets):
                here = cell[p]
                if here == c:
                    continue
                q = owner[c]
                cell[p] = c
                owner[c] = p
                owner[here] = q
                if q >= 0:
                    cell[q] = here
            for p, _ in saved:
                d_viol += bad[corner[switch_of[p]]][cell[p]]
        elif roll < 0.6:
            kind = _SWITCH
            s = choice(switch_list)
            new = choice(corner_list)
            old = corner[s]
            corner[s] = new
            d_new, d_old = dist[new], dist[old]
            for o in link_ends[s]:
                d_area += d_new[corner[o]] - d_old[corner[o]]
            b_new, b_old = bad[new], bad[old]
            for p in procs_of[s]:
                d_viol += b_new[cell[p]] - b_old[cell[p]]
        elif roll < 0.9 and num_procs >= 2:
            kind = _SWAP
            a, b = rng.sample(proc_list, 2)
            ca = cell[a]
            cb = cell[b]
            cell[a] = cb
            cell[b] = ca
            owner[cb] = a
            owner[ca] = b
            b_a = bad[corner[switch_of[a]]]
            b_b = bad[corner[switch_of[b]]]
            d_viol = b_a[cb] - b_a[ca] + b_b[ca] - b_b[cb]
        else:
            a = rng.randrange(num_procs)
            if spare:
                kind = _FREE
                c = choice([c for c in tile_list if owner[c] < 0])
                here = cell[a]
                cell[a] = c
                owner[here] = -1
                owner[c] = a
                b_a = bad[corner[switch_of[a]]]
                d_viol = b_a[c] - b_a[here]
            else:
                kind = _NOTHING
        cand_e = (area + d_area) + _PENALTY * (violations + d_viol)
        if cand_e <= cur_e or (
            temperature > 0 and draw() < exp(-(cand_e - cur_e) / temperature)
        ):
            if cand_e > cur_e:
                worse += 1
            area += d_area
            violations += d_viol
            cur_e = cand_e
            if cur_e < best_e:
                best_e = cur_e
                best = (corner[:], cell[:])
        else:
            rejected += 1
            if kind == _CLUSTER:
                corner[s] = old
                for c in targets:
                    owner[c] = -1
                for p, c in saved:
                    cell[p] = c
                    owner[c] = p
            elif kind == _SWITCH:
                corner[s] = old
            elif kind == _SWAP:
                cell[a] = ca
                cell[b] = cb
                owner[ca] = a
                owner[cb] = b
            else:
                cell[a] = here
                owner[c] = -1
                owner[here] = a
        if step % per_level == 0:
            if record:
                temp_series.append(step, temperature)
                energy_series.append(step, cur_e)
            temperature *= cooling
    live.area, live.violations = area, violations
    if record:
        m = obs.metrics
        m.counter(f"{_LABEL}.accepted").inc(schedule.steps - rejected)
        m.counter(f"{_LABEL}.accepted_worse").inc(worse)
        m.counter(f"{_LABEL}.rejected").inc(rejected)
    return best


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
    tables = _Tables(network, grid)
    best: Optional[_Placement] = None
    best_key = None
    for restart in range(_RESTARTS):
        rng = random.Random(seed * _RESTARTS + restart)
        initial = _initial_placement(network, grid, rng)
        # The anneal draws from a fresh generator on the same seed.
        anneal_rng = random.Random(seed * _RESTARTS + restart)
        with obs.tracer.span("floorplan.restart", restart=restart):
            corner, cell = _anneal(
                tables, tables.live(initial), anneal_rng, _SCHEDULE, obs
            )
        candidate = tables.placement(initial, corner, cell)
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
