"""Property: the annealer's incremental cost equals a from-scratch pricing.

Each floorplan proposal re-prices only what its move touched.  On
random networks (including switches with more than four processors, so
violations are nonzero, and parallel links), random grids and seeds,
every proposal's cached ``(area, violations)`` must equal
``_link_area`` / ``_violations`` of the proposed state, and the state it
was proposed from must be left untouched, which
:class:`~repro.synthesis.annealing.SimulatedAnnealing` requires.
"""

import copy
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.floorplan.place import (
    _PENALTY,
    _initial_placement,
    _link_area,
    _Moves,
    _violations,
)
from repro.floorplan.tiles import TileGrid
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


@settings(max_examples=60, deadline=None)
@given(case=_cases())
@example(case=(crossbar(8).network, TileGrid(3, 3), 0))
def test_cached_cost_matches_reference_on_every_proposal(case):
    net, grid, seed = case
    rng = random.Random(seed)
    moves = _Moves(net, grid)
    p = _initial_placement(net, grid, rng)
    assert (p.area, p.violations) == _priced(net, grid, p)
    for _ in range(PROPOSALS):
        before = copy.deepcopy(p)
        q = moves.neighbor(p, rng)
        assert p == before
        assert (q.area, q.violations) == _priced(net, grid, q)
        assert moves.energy(q) == q.area + _PENALTY * q.violations
        p = q
