"""Golden placements: the annealer's output, pinned exactly.

The fixture holds, per case, the network that was placed, the seed and
the full floorplan (switch corners, processor tiles, per-link costs,
feasibility) for:

* the ten paper designs (five benchmarks at 8/9 and at 16 nodes),
  synthesized and placed at seed 0;
* the five 8/9-node designs at seeds 1 and 2;
* ``crossbar(8)``, whose eight-processor switch can never place
  feasibly, so its placement goes through the repair pass.

Link delays in the simulator goldens come from these placements; this
file pins them directly, so a placement change fails here first.  The
networks are stored with the placements, so the check re-runs only
``place()``; synthesis is pinned by its own goldens.

Regenerate the fixture after an *intentional* placement change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/floorplan/test_golden_placements.py -q
"""

import json
import os
from pathlib import Path

import pytest

from repro.eval.runner import prepare
from repro.floorplan import place
from repro.topology import Network, crossbar
from repro.workloads.nas import BENCHMARK_NAMES, PAPER_LARGE_SIZE, PAPER_SMALL_SIZES

GOLDEN_PATH = Path(__file__).parent / "golden" / "placements.json"

CASES = (
    [(name, PAPER_SMALL_SIZES[name], 0) for name in BENCHMARK_NAMES]
    + [(name, PAPER_LARGE_SIZE, 0) for name in BENCHMARK_NAMES]
    + [(name, PAPER_SMALL_SIZES[name], seed) for seed in (1, 2) for name in BENCHMARK_NAMES]
)
CROSSBAR_CASE = "crossbar-8/seed0"


def _case_names():
    return [f"{name}-{n}/seed{seed}" for name, n, seed in CASES] + [CROSSBAR_CASE]


def _network_to_dict(net):
    # Switch and link ids are sequential, so re-adding switches and
    # links in order rebuilds the identical network.
    assert list(net.switches) == list(range(net.num_switches))
    assert [link.link_id for link in net.links] == list(range(net.num_links))
    return {
        "num_processors": net.num_processors,
        "num_switches": net.num_switches,
        "processors": [net.switch_of(p) for p in range(net.num_processors)],
        "links": [[link.u, link.v] for link in net.links],
    }


def _network_from_dict(raw):
    net = Network(raw["num_processors"])
    for _ in range(raw["num_switches"]):
        net.add_switch()
    for proc, switch in enumerate(raw["processors"]):
        net.attach_processor(proc, switch)
    for u, v in raw["links"]:
        net.add_link(u, v)
    return net


def _plan_to_dict(plan):
    return {
        "grid": [plan.grid.width, plan.grid.height],
        "switch_corner": {str(s): list(c) for s, c in sorted(plan.switch_corner.items())},
        "processor_cell": {
            str(p): list(c) for p, c in sorted(plan.processor_cell.items())
        },
        "link_costs": {str(lid): c for lid, c in sorted(plan.link_costs.items())},
        "feasible": plan.feasible,
    }


def _regenerate():
    networks = {
        f"{name}-{n}/seed{seed}": (prepare(name, n, seed=seed).design.network, seed)
        for name, n, seed in CASES
    }
    networks[CROSSBAR_CASE] = (crossbar(8).network, 0)
    return {
        case: {
            "network": _network_to_dict(net),
            "seed": seed,
            **_plan_to_dict(place(net, seed=seed)),
        }
        for case, (net, seed) in networks.items()
    }


def test_placements_match_golden():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(_regenerate(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(_case_names())
    for case, entry in golden.items():
        plan = place(_network_from_dict(entry["network"]), seed=entry["seed"])
        expected = {k: v for k, v in entry.items() if k not in ("network", "seed")}
        assert _plan_to_dict(plan) == expected, case
    # The fixture must keep exercising the infeasible path.
    assert not golden[CROSSBAR_CASE]["feasible"]
