"""Pinned cache keys of every cell family.

A cell's key is its address in the result cache, so refactoring the
fingerprint code must leave every key byte-identical: a moved key makes
each cached payload unreachable, and a key that stops covering an input
returns a payload computed for something else.  The pins cover all five
families: :class:`PerformanceCell`, :class:`ResilienceCell`,
:class:`OpenLoopCell`, :class:`SynthesisCell` and :class:`SetupTask`.
They cover each routing branch of the topology fingerprint: the torus
replays as an adaptive policy name in :class:`PerformanceCell` and
:class:`OpenLoopCell` but as concrete source routes in
:class:`ResilienceCell`, performance and resilience cells route the
program's pairs, and open-loop cells route every pair.  The synthesis
pins cover the pattern fingerprint with and without constraints and an
anneal schedule.

Every key includes ``code_version_tag()``.  Putting a digest of the
``repro`` sources into that tag (ROADMAP item 1) will move all of these
pins on purpose; any other change that moves one changes cache
addresses and must say so.
"""

import pytest

from repro.eval import prepare
from repro.eval.parallel import (
    OpenLoopCell,
    PerformanceCell,
    ResilienceCell,
    SetupTask,
    SynthesisCell,
)
from repro.faults import FaultScenario, LinkFault
from repro.simulator import SimConfig
from repro.synthesis import AnnealSchedule, DesignConstraints
from repro.topology import mesh, torus
from repro.topology.builders import torus_link_delays
from repro.workloads import benchmark


@pytest.fixture(scope="module")
def cg8():
    return prepare("cg", 8, seed=0)


@pytest.mark.parametrize(
    "kind, key",
    [
        ("crossbar", "2ebd5f42383b5a8cd840078b913b24ed6c99c4eb1323771d770ae7bca45fb3eb"),
        ("mesh", "d1074b58c3ba988d0b31a00abaa5f9fd80bfb2cc374321c85d6eb5864a94eb7b"),
        ("torus", "aa31c2bd7974036265b9dcf13b823a95aa02337c01fbca3ae07dab93ff7bf5c9"),
        ("generated", "e17fb0efbe82e4688c97f40e36cfe5686aba2dd1d2c32a683305cc84c82e5302"),
    ],
)
def test_performance_cell_key_is_pinned(cg8, kind, key):
    cell = PerformanceCell(
        label=f"cg-8/{kind}",
        program=cg8.benchmark.program,
        topology=cg8.topology(kind),
        config=SimConfig(),
        link_delays=cg8.link_delays(kind),
    )
    assert cell.key() == key


@pytest.mark.parametrize(
    "faults, key",
    [
        ((), "9b9bb6d1f37fae7270dfe6db7afaccd13e5e351b517e32bfd33f1a1837f340f5"),
        ((LinkFault(0),), "c4ba4a4f140f8147cc6f61b8f8641b60ef4bca4d0ae6ad87a7203dd553a9c5d1"),
    ],
    ids=["baseline", "link0"],
)
def test_resilience_cell_key_is_pinned(cg8, faults, key):
    cell = ResilienceCell(
        label="cg-8/torus",
        program=cg8.benchmark.program,
        topology=cg8.topology("torus"),
        config=SimConfig(),
        link_delays=cg8.link_delays("torus"),
        scenario=FaultScenario.of(*faults) if faults else None,
    )
    assert cell.key() == key


@pytest.mark.parametrize(
    "network, pattern, key",
    [
        ("mesh4x4", "tornado", "f53f91299fd3f25031c52774cebf3f7f91891a84a6278c6bce4f364f21546e71"),
        ("torus4x4", "tornado", "3631e10e792c13dfb0e764bf878845468ed54f71cec9e97450ce875ac7020c98"),
        ("cg8-generated", "uniform", "d39792ae2a3bc6649d1256b44d6eed6e8fd3c9f890ce7d80b6541360c72c2902"),
    ],
)
def test_openloop_cell_key_is_pinned(cg8, network, pattern, key):
    if network == "mesh4x4":
        topology, delays = mesh(4, 4), None
    elif network == "torus4x4":
        topology = torus(4, 4)
        delays = torus_link_delays(topology)
    else:
        topology, delays = cg8.topology("generated"), cg8.link_delays("generated")
    cell = OpenLoopCell(
        label=network,
        topology=topology,
        pattern=pattern,
        injection_rate=0.25,
        config=SimConfig(),
        link_delays=delays,
    )
    assert cell.key() == key


@pytest.mark.parametrize(
    "options, key",
    [
        ({"seed": 0}, "8842e30a0c59bc93e83202f823d16184d14991e62d23962f001ecb2157ccacdb"),
        (
            {
                "seed": 1,
                "constraints": DesignConstraints(max_degree=8),
                "schedule": AnnealSchedule(steps=50),
            },
            "d7cda99f8709c65c22f8fb262a252baf3446bd008463267e7ba5d129b741cfd9",
        ),
    ],
    ids=["defaults", "constrained-annealed"],
)
def test_synthesis_cell_key_is_pinned(options, key):
    cell = SynthesisCell(label="x", pattern=benchmark("cg", 8).pattern, **options)
    assert cell.key() == key


def test_setup_task_key_is_pinned():
    key = "c635c9884cce238e1cb58c6bcda2ab4e7aa01424cd8752b7fce75860572f362f"
    assert SetupTask("cg", 8, seed=0).key() == key
