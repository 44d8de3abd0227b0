"""Properties of the in-place floorplan annealer.

Each restart anneals one placement in place: a proposal changes the
live lists, re-prices only what it touched, and is undone when it is
rejected.  On random networks (including switches with more than four
processors, so violations are nonzero, and parallel links), random
grids (some with free tiles) and seeds:

* after every proposal, the running ``(area, violations)`` equals
  ``_link_area`` / ``_violations`` of the live state, and after every
  rejected proposal the corners, tiles and tile owners equal their
  values before it;
* :func:`place` returns what the copy-per-proposal annealer it replaced
  returns (kept below as a test-local oracle): the same floorplan
  records in the same key order, and the same metrics.
"""

import copy
import json
import math
import random
from typing import Dict, Iterable, List, Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.eval.serialize import canonical_json, floorplan_to_dict
from repro.floorplan.place import (
    _LABEL,
    _PENALTY,
    _RESTARTS,
    _SCHEDULE,
    Floorplan,
    _anneal,
    _default_grid,
    _initial_placement,
    _link_area,
    _Placement,
    _repair,
    _Tables,
    _violations,
    place,
)
from repro.floorplan.tiles import TileGrid, manhattan
from repro.obs import enabled_observability
from repro.synthesis.annealing import AnnealSchedule
from repro.topology import Network, crossbar

PROPOSALS = 300


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 12))
    net = Network(n)
    switches = [net.add_switch() for _ in range(draw(st.integers(1, n)))]
    for p in range(n):
        net.attach_processor(p, draw(st.sampled_from(switches)))
    # A chain keeps the switch graph connected; extra links may repeat a
    # pair, which makes parallel links.
    for u, v in zip(switches, switches[1:]):
        net.add_link(u, v)
    if len(switches) >= 2:
        pairs = st.tuples(st.sampled_from(switches), st.sampled_from(switches))
        for u, v in draw(st.lists(pairs.filter(lambda uv: uv[0] != uv[1]), max_size=6)):
            net.add_link(u, v)
    width = draw(st.integers(1, 5))
    height = draw(st.integers(-(-n // width), -(-n // width) + 2))
    return net, TileGrid(width, height), draw(st.integers(0, 2**16))


def _priced(net, grid, p):
    return _link_area(net, p), _violations(net, grid, p)


# ---------------------------------------------------------------------------
# The undo record
# ---------------------------------------------------------------------------


def _step_through(net, grid, seed, temperature):
    """Run the annealing loop one proposal per call, checking the live
    state after each; returns how many proposals were rejected."""
    rng = random.Random(seed)
    tables = _Tables(net, grid)
    initial = _initial_placement(net, grid, rng)
    assert (initial.area, initial.violations) == _priced(net, grid, initial)
    live = tables.live(initial)
    one_step = AnnealSchedule(
        initial_temperature=temperature, steps=1, moves_per_temperature=1
    )
    obs = enabled_observability()
    rejected = obs.metrics.counter(f"{_LABEL}.rejected")
    for _ in range(PROPOSALS):
        before = copy.deepcopy(live)
        was_rejected = rejected.value
        _anneal(tables, live, rng, one_step, obs)
        state = tables.placement(initial, live.corner, live.cell)
        assert (live.area, live.violations) == _priced(net, grid, state)
        assert live.owner == [
            live.cell.index(c) if c in live.cell else -1 for c in range(len(tables.cells))
        ]
        if rejected.value > was_rejected:
            assert live == before
    return rejected.value


@settings(max_examples=60, deadline=None)
@given(case=_cases(), temperature=st.sampled_from([0.5, 2.0, 8.0]))
def test_cached_cost_matches_reference_on_every_proposal(case, temperature):
    _step_through(*case, temperature)


def test_undo_record_is_exercised():
    # Eight processors on one switch never place feasibly, so most
    # cluster moves displace occupants and many proposals are rejected.
    assert _step_through(crossbar(8).network, TileGrid(3, 3), 0, 2.0) > PROPOSALS // 4


# ---------------------------------------------------------------------------
# The copy-per-proposal annealer the in-place loop replaced
# ---------------------------------------------------------------------------


class _OracleMoves:
    """Every proposal copies the placement, changes the copy and
    re-prices what it touched."""

    def __init__(self, net: Network, grid: TileGrid) -> None:
        self.num_processors = net.num_processors
        self.switches = net.switches
        self.corners = grid.corners()
        self.cells = grid.cells()
        self.corner_tiles = {c: sorted(grid.corner_cells(c)) for c in self.corners}
        self.switch_of = [net.switch_of(p) for p in range(net.num_processors)]
        self.procs_of = {s: sorted(net.processors_of(s)) for s in self.switches}
        self.link_ends: Dict[int, List[int]] = {s: [] for s in self.switches}
        for link in net.links:
            self.link_ends[link.u].append(link.v)
            self.link_ends[link.v].append(link.u)

    @staticmethod
    def energy(p: _Placement) -> float:
        return p.area + _PENALTY * p.violations

    def neighbor(self, p: _Placement, rng: random.Random) -> _Placement:
        q = _Placement(dict(p.switch_corner), dict(p.processor_cell), p.area, p.violations)
        switch: Optional[int] = None
        moved: Iterable[int] = ()
        roll = rng.random()
        if roll < 0.35:
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

    def _move_cluster(self, p, switch, corner, rng) -> List[int]:
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

    def _reprice(self, p, q, switch, moved) -> None:
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


def _oracle_anneal(moves, initial, schedule, seed, obs):
    """The generic copy-per-proposal annealing loop."""
    rng = random.Random(seed)
    current, current_e = initial, moves.energy(initial)
    best, best_e = current, current_e
    temperature = schedule.initial_temperature
    m = obs.metrics
    accepted = m.counter(f"{_LABEL}.accepted")
    accepted_worse = m.counter(f"{_LABEL}.accepted_worse")
    rejected = m.counter(f"{_LABEL}.rejected")
    temp_series = m.series(f"{_LABEL}.temperature")
    energy_series = m.series(f"{_LABEL}.energy")
    for step in range(schedule.steps):
        candidate = moves.neighbor(current, rng)
        cand_e = moves.energy(candidate)
        delta = cand_e - current_e
        if cand_e <= current_e or (
            temperature > 0 and rng.random() < math.exp(-delta / temperature)
        ):
            accepted.inc()
            if cand_e > current_e:
                accepted_worse.inc()
            current, current_e = candidate, cand_e
            if current_e < best_e:
                best, best_e = current, current_e
        else:
            rejected.inc()
        if (step + 1) % schedule.moves_per_temperature == 0:
            temp_series.append(step + 1, temperature)
            energy_series.append(step + 1, current_e)
            temperature *= schedule.cooling
    return best


def _oracle_place(network, grid, seed, obs) -> Floorplan:
    grid = grid if grid is not None else _default_grid(network.num_processors)
    moves = _OracleMoves(network, grid)
    best = best_key = None
    for restart in range(_RESTARTS):
        rng = random.Random(seed * _RESTARTS + restart)
        initial = _initial_placement(network, grid, rng)
        candidate = _oracle_anneal(
            moves, initial, _SCHEDULE, seed * _RESTARTS + restart, obs
        )
        if _violations(network, grid, candidate) > 0:
            _repair(network, grid, candidate)
        key = (_violations(network, grid, candidate), _link_area(network, candidate))
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    obs.metrics.gauge("floorplan.link_area").set(_link_area(network, best))
    obs.metrics.gauge("floorplan.violations").set(_violations(network, grid, best))
    return Floorplan(
        grid=grid,
        switch_corner=dict(best.switch_corner),
        processor_cell=dict(best.processor_cell),
        link_costs={
            link.link_id: manhattan(best.switch_corner[link.u], best.switch_corner[link.v])
            for link in network.links
        },
        feasible=_violations(network, grid, best) == 0,
    )


def _observed(fn, net, grid, seed):
    obs = enabled_observability()
    plan = fn(net, grid, seed, obs)
    return (
        canonical_json(floorplan_to_dict(plan)),
        list(plan.switch_corner),
        list(plan.processor_cell),
        json.dumps(obs.metrics.snapshot(), sort_keys=True),
    )


def _place(net, grid, seed, obs):
    return place(net, grid=grid, seed=seed, obs=obs)


@settings(max_examples=20, deadline=None)
@given(case=_cases(), default_grid=st.booleans())
@example(case=(crossbar(8).network, TileGrid(3, 3), 0), default_grid=False)
@example(case=(crossbar(8).network, TileGrid(3, 3), 0), default_grid=True)
def test_place_matches_copy_per_proposal_annealer(case, default_grid):
    net, grid, seed = case
    if default_grid:
        grid = None
    assert _observed(_place, net, grid, seed) == _observed(_oracle_place, net, grid, seed)
