"""Designing one network for a workload set.

The cross-workload study (``python -m repro cross-workload``) shows a
network specialized for CG degrades BT.  When the workload set is known
up front — the norm for the special-purpose systems the paper targets —
the methodology can design for the *union* of the patterns instead.
This script compares, for the CG+FFT pair:

* each application on its own specialized network,
* both applications on the jointly-designed network,
* both on the mesh baseline,

along with the resource cost of generality.

Run:  python examples/multi_application.py
"""

from repro.model import check_contention_free
from repro.simulator import SimConfig, simulate
from repro.synthesis import generate_network, generate_network_for_set
from repro.topology import mesh_for
from repro.workloads import cg, fft


def main():
    benches = [cg(8, iterations=2), fft(8, iterations=2)]
    patterns = [b.pattern for b in benches]
    config = SimConfig(max_cycles=20_000_000)

    own = {b.name: generate_network(b.pattern, seed=0) for b in benches}
    shared = generate_network_for_set(patterns, seed=0)
    mesh = mesh_for(8)

    print("resources (switches / links):")
    for name, design in own.items():
        print(f"  {name} specialized: {design.num_switches} / {design.num_links}")
    print(f"  shared:        {shared.num_switches} / {shared.num_links}")
    print(f"  mesh:          {mesh.network.num_switches} / {mesh.network.num_links}")
    print()

    for bench in benches:
        assert check_contention_free(
            bench.pattern, shared.topology.routing
        ).contention_free
        rows = {
            "own net": simulate(bench.program, own[bench.name].topology, config),
            "shared net": simulate(bench.program, shared.topology, config),
            "mesh": simulate(bench.program, mesh, config),
        }
        base = rows["own net"].execution_cycles
        print(f"{bench.name}:")
        for label, result in rows.items():
            print(
                f"  {label:>10}: {result.execution_cycles:7d} cycles "
                f"({result.execution_cycles / base:.3f}x own)"
            )
        print()


if __name__ == "__main__":
    main()
