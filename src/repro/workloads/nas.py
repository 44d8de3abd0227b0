"""Synthetic generators for the five NAS benchmarks of the evaluation.

The paper extracts communication patterns from BT, CG, FFT, MG and SP
runs on 8/9/16-node clusters.  We regenerate each benchmark's
documented communication structure as a phase-parallel program (the
substitution recorded in DESIGN.md):

* **CG** — per iteration, row-group reduction exchanges at doubling
  distances followed by the matrix-transpose exchange (exactly the
  paper's Figure 1 for 16 processes).
* **FFT** — 2-D blocked transform: all-to-all within rows, then within
  columns, as shifted permutations.  Row (column) groups run their
  exchange steps independently — there is no synchronization across
  groups during a within-group all-to-all — so each group's step is its
  own contention period.
* **MG** — V-cycle levels of nearest-neighbour boundary exchanges with
  shrinking message sizes and a shrinking active-process subset at
  coarser levels, plus a small-message tree reduction and broadcast.
* **BT / SP** — ADI sweeps on a square process grid.  The sweeps are
  *pipelined wavefronts* (cell (r, c) forwards to (r, c+1) only after
  receiving from (r, c-1)), so each pipeline stage — a handful of
  messages, one per row/column — is one contention period, not the
  whole sweep at once.  SP uses smaller messages and more iterations
  (same algorithm family, as the paper notes).

Compute time per phase scales inversely with the process count (fixed
problem size), reproducing the paper's observation that the 16-node
configurations are more communication bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import WorkloadError
from repro.model.pattern import CommunicationPattern
from repro.workloads.analyzer import extract_pattern
from repro.workloads.collectives import (
    binomial_broadcast,
    pairwise_exchange,
    recursive_halving_reduce,
    shifted_all_to_all,
    transpose_exchange,
)
from repro.workloads.events import PhaseProgramBuilder, Program
from repro.workloads.trace import Trace, trace_program

BENCHMARK_NAMES = ("bt", "cg", "fft", "mg", "sp")

# The paper's evaluation sizes: BT and SP need a perfect square.
PAPER_SMALL_SIZES: Dict[str, int] = {"bt": 9, "cg": 8, "fft": 8, "mg": 8, "sp": 9}
PAPER_LARGE_SIZE = 16

# Per-process compute jitter of every benchmark (a fraction of each
# compute block).
_JITTER = 0.08


def paper_sizes(size: str) -> Dict[str, int]:
    """Benchmark name -> process count for "small" (8/9) or "large" (16)."""
    if size == "small":
        return dict(PAPER_SMALL_SIZES)
    if size == "large":
        return {name: PAPER_LARGE_SIZE for name in BENCHMARK_NAMES}
    raise WorkloadError(f"size must be 'small' or 'large', got {size!r}")


@dataclass(frozen=True)
class Benchmark:
    """A generated benchmark: program, trace and extracted pattern."""

    name: str
    program: Program
    trace: Trace
    pattern: CommunicationPattern
    grid: Tuple[int, int]  # (rows, cols)

    @property
    def num_processes(self) -> int:
        return self.program.num_processes


def _finish(name: str, builder: PhaseProgramBuilder, grid: Tuple[int, int]) -> Benchmark:
    program = builder.build()
    trace = trace_program(program)
    return Benchmark(
        name=name,
        program=program,
        trace=trace,
        pattern=extract_pattern(trace),
        grid=grid,
    )


def _pow2_grid(n: int) -> Tuple[int, int]:
    """Near-square (rows, cols) for a power-of-two process count."""
    if n < 2 or n & (n - 1):
        raise WorkloadError(f"this benchmark needs a power-of-two process count, got {n}")
    log = n.bit_length() - 1
    cols = 1 << ((log + 1) // 2)
    return (n // cols, cols)


def _square_grid(n: int) -> Tuple[int, int]:
    side = math.isqrt(n)
    if side * side != n:
        raise WorkloadError(f"BT/SP need a perfect-square process count, got {n}")
    return (side, side)


def _rows_of(rows: int, cols: int):
    return [[r * cols + c for c in range(cols)] for r in range(rows)]


def _cols_of(rows: int, cols: int):
    return [[r * cols + c for r in range(rows)] for c in range(cols)]


def _compute_per_phase(base: int, n: int) -> int:
    """Fixed-problem-size scaling: compute shrinks as processes grow."""
    return max(1, base * PAPER_LARGE_SIZE // n)


def cg(n: int, iterations: int = 3) -> Benchmark:
    """Conjugate Gradient: row reductions plus transpose exchange."""
    rows, cols = _pow2_grid(n)
    builder = PhaseProgramBuilder(n, f"cg-{n}", jitter=_JITTER)
    compute = _compute_per_phase(1000, n)
    message_bytes = 4096
    row_groups = _rows_of(rows, cols)
    for it in range(iterations):
        distance = 1
        while distance < cols:
            builder.compute(compute)
            phase = [
                (s, d, message_bytes)
                for group in row_groups
                for s, d in pairwise_exchange(group, distance)
            ]
            builder.phase(phase, tag=f"it{it}-reduce-d{distance}")
            distance *= 2
        builder.compute(compute)
        transpose = [
            (s, d, message_bytes) for s, d in transpose_exchange(rows, cols)
        ]
        builder.phase(transpose, tag=f"it{it}-transpose")
    return _finish(f"cg-{n}", builder, (rows, cols))


def fft(n: int, iterations: int = 2) -> Benchmark:
    """3-D FFT with 2-D blocking: row then column all-to-all."""
    rows, cols = _pow2_grid(n)
    builder = PhaseProgramBuilder(n, f"fft-{n}", jitter=_JITTER)
    compute = _compute_per_phase(1800, n)
    message_bytes = 2048
    row_groups = _rows_of(rows, cols)
    col_groups = _cols_of(rows, cols)
    for it in range(iterations):
        # All groups leave the preceding global phase together, so every
        # group's *first* exchange step lands in one contention period;
        # later steps decohere (groups pace themselves independently)
        # and become separate periods.
        for axis, groups in (("row", row_groups), ("col", col_groups)):
            if axis == "col" and rows < 2:
                continue
            staged = [shifted_all_to_all(g) for g in groups]
            builder.compute(compute)
            builder.phase(
                [(s, d, message_bytes) for stages in staged for s, d in stages[0]],
                tag=f"it{it}-{axis}-a2a0",
            )
            for g, stages in enumerate(staged):
                for k, phase in enumerate(stages[1:], start=1):
                    builder.compute(compute)
                    builder.phase(
                        [(s, d, message_bytes) for s, d in phase],
                        tag=f"it{it}-{axis}{g}-a2a{k}",
                    )
    return _finish(f"fft-{n}", builder, (rows, cols))


def mg(n: int) -> Benchmark:
    """Multi-Grid: per-level boundary exchanges + reduction/broadcast.

    Two iterations of a three-level V-cycle.  Boundary messages are 512
    bytes on the finest level and shrink 4x per level, but never below
    the 64 bytes of the reduction and broadcast messages.
    """
    rows, cols = _pow2_grid(n)
    builder = PhaseProgramBuilder(n, f"mg-{n}", jitter=_JITTER)
    compute = _compute_per_phase(2200, n)
    collective_bytes = 64
    everyone = list(range(n))
    for it in range(2):
        size = 512
        for level in range(3):
            # Boundary exchange at this level: only every 2^level-th
            # process row/column stays active (grid coarsening), and
            # each active row exchanges as its own period (rows proceed
            # independently through the V-cycle smoother).
            stride = 1 << level
            active_rows = list(range(0, rows, stride))
            active_cols = list(range(0, cols, stride))
            # Finest level: the give/take exchange happens right after
            # the global residual computation, so all rows (then all
            # columns) exchange in one contention period.  Coarser
            # levels involve fewer processes and drift apart, one period
            # per row/column.
            row_rings = [
                [r * cols + c for c in active_cols]
                for r in active_rows
            ]
            col_rings = [
                [r * cols + c for r in active_rows]
                for c in active_cols
            ]
            for axis, rings in (("row", row_rings), ("col", col_rings)):
                rings = [ring for ring in rings if len(ring) >= 2]
                if not rings:
                    continue
                if level == 0:
                    builder.compute(compute)
                    builder.phase(
                        [
                            (ring[i], ring[(i + 1) % len(ring)], size)
                            for ring in rings
                            for i in range(len(ring))
                        ],
                        tag=f"it{it}-L0-{axis}",
                    )
                else:
                    for g, ring in enumerate(rings):
                        builder.compute(compute)
                        builder.phase(
                            [
                                (ring[i], ring[(i + 1) % len(ring)], size)
                                for i in range(len(ring))
                            ],
                            tag=f"it{it}-L{level}-{axis}{g}",
                        )
            size = max(collective_bytes, size // 4)
        # Small-message tree reduction to rank 0 and broadcast back.
        for k, phase in enumerate(recursive_halving_reduce(everyone)):
            builder.compute(compute // 2)
            builder.phase(
                [(s, d, collective_bytes) for s, d in phase],
                tag=f"it{it}-reduce-{k}",
            )
        for k, phase in enumerate(binomial_broadcast(everyone)):
            builder.compute(compute // 2)
            builder.phase(
                [(s, d, collective_bytes) for s, d in phase],
                tag=f"it{it}-bcast-{k}",
            )
    return _finish(f"mg-{n}", builder, (rows, cols))


def _adi_sweeps(
    name: str, n: int, iterations: int, message_bytes: int, compute_base: int
) -> Benchmark:
    """Shared BT/SP generator: pipelined ADI sweeps along x, y and the
    diagonal, forward and backward.

    Each sweep is a wavefront pipeline: stage ``k`` carries one message
    per row (or column/diagonal), because a cell can only forward after
    the substitution data from its predecessor arrives.  Each stage is
    therefore one contention period of ``rows`` messages — the staging
    the data dependencies enforce at run time as well.
    """
    rows, cols = _square_grid(n)
    builder = PhaseProgramBuilder(n, f"{name}-{n}", jitter=_JITTER)
    compute = _compute_per_phase(compute_base, n)

    def x_sweep(direction: int):
        stages = []
        cs = range(cols - 1) if direction > 0 else range(cols - 1, 0, -1)
        for c in cs:
            stages.append(
                [(r * cols + c, r * cols + c + direction) for r in range(rows)]
            )
        return stages

    def y_sweep(direction: int):
        stages = []
        rs = range(rows - 1) if direction > 0 else range(rows - 1, 0, -1)
        for r in rs:
            stages.append(
                [(r * cols + c, (r + direction) * cols + c) for c in range(cols)]
            )
        return stages

    def diag_sweep(direction: int):
        # The multi-partition z-sweep: successive cells along z belong
        # to processors offset diagonally in *both* grid dimensions, so
        # the processor-level wavefront pairs are skewed non-neighbours
        # (approximating NAS BT/SP's multipartition mapping).
        skew = 2 % cols if cols > 2 else 1
        stages = []
        rs = range(rows - 1) if direction > 0 else range(rows - 1, 0, -1)
        for r in rs:
            stages.append(
                [
                    (
                        r * cols + k,
                        (r + direction) * cols + (k + direction * skew) % cols,
                    )
                    for k in range(cols)
                ]
            )
        return stages

    sweeps = [
        ("x+", x_sweep(1)),
        ("x-", x_sweep(-1)),
        ("y+", y_sweep(1)),
        ("y-", y_sweep(-1)),
        ("d+", diag_sweep(1)),
        ("d-", diag_sweep(-1)),
    ]
    # copy_faces: the boundary exchange preceding the sweeps is a
    # simultaneous sendrecv with each grid neighbour (periodic), i.e.
    # four full-permutation contention periods per iteration.  These
    # dense periods are what makes BT/SP the most resource-hungry
    # patterns of the suite (paper Section 4.1).
    faces = [
        ("fx+", [(r * cols + c, r * cols + (c + 1) % cols) for r in range(rows) for c in range(cols)]),
        ("fx-", [(r * cols + c, r * cols + (c - 1) % cols) for r in range(rows) for c in range(cols)]),
        ("fy+", [(r * cols + c, ((r + 1) % rows) * cols + c) for r in range(rows) for c in range(cols)]),
        ("fy-", [(r * cols + c, ((r - 1) % rows) * cols + c) for r in range(rows) for c in range(cols)]),
    ]
    if cols > 3:
        # Under multipartition each processor owns cells scattered along
        # the 3-D diagonal, so face exchanges also pair processors two
        # grid columns apart (a distance-2 permutation that no 2-D grid
        # embedding can route neighbour-to-neighbour).
        faces.append(
            (
                "fz+",
                [
                    (r * cols + c, ((r + 1) % rows) * cols + (c + 2) % cols)
                    for r in range(rows)
                    for c in range(cols)
                ],
            )
        )
        faces.append(
            (
                "fz-",
                [
                    (r * cols + c, ((r - 1) % rows) * cols + (c - 2) % cols)
                    for r in range(rows)
                    for c in range(cols)
                ],
            )
        )
    for it in range(iterations):
        for label, phase in faces:
            builder.compute(compute)
            builder.phase(
                [(s, d, message_bytes) for s, d in phase if s != d],
                tag=f"it{it}-{label}",
            )
        for label, stages in sweeps:
            for k, stage in enumerate(stages):
                builder.compute(compute)
                builder.phase(
                    [(s, d, message_bytes) for s, d in stage],
                    tag=f"it{it}-{label}-s{k}",
                )
    return _finish(f"{name}-{n}", builder, (rows, cols))


def bt(n: int, iterations: int = 2) -> Benchmark:
    """Block-Tridiagonal solver (ADI sweeps, large messages)."""
    return _adi_sweeps("bt", n, iterations, message_bytes=2048, compute_base=1200)


def sp(n: int) -> Benchmark:
    """Scalar-Pentadiagonal solver (same sweeps, smaller messages, three
    iterations)."""
    return _adi_sweeps("sp", n, iterations=3, message_bytes=1024, compute_base=1000)


_BUILDERS = {"bt": bt, "cg": cg, "fft": fft, "mg": mg, "sp": sp}


def benchmark(name: str, n: int) -> Benchmark:
    """Build a benchmark by name ("bt", "cg", "fft", "mg", "sp")."""
    try:
        build = _BUILDERS[name.lower()]
    except KeyError:
        raise WorkloadError(
            f"unknown benchmark {name!r}; choose from {sorted(_BUILDERS)}"
        ) from None
    return build(n)
