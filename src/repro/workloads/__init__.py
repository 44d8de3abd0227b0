"""Workloads: NAS-like benchmark generators, traces and the pattern
analyzer (paper Section 4's profiling pipeline)."""

from repro.workloads.analyzer import (
    check_trace_consistent,
    contention_periods_of,
    extract_pattern,
)
from repro.workloads.collectives import (
    binomial_broadcast,
    pairwise_exchange,
    recursive_halving_reduce,
    shifted_all_to_all,
    transpose_exchange,
)
from repro.workloads.events import (
    ComputeEvent,
    Event,
    PhaseProgramBuilder,
    Program,
    RecvEvent,
    SendEvent,
)
from repro.workloads.nas import (
    BENCHMARK_NAMES,
    PAPER_LARGE_SIZE,
    PAPER_SMALL_SIZES,
    Benchmark,
    benchmark,
    bt,
    cg,
    fft,
    mg,
    paper_sizes,
    sp,
)
from repro.workloads.synthetic import random_permutation_pattern
from repro.workloads.trace import (
    Trace,
    TraceRecord,
    read_trace,
    trace_program,
    write_trace,
)

__all__ = [
    "BENCHMARK_NAMES",
    "Benchmark",
    "ComputeEvent",
    "Event",
    "PAPER_LARGE_SIZE",
    "PAPER_SMALL_SIZES",
    "PhaseProgramBuilder",
    "Program",
    "RecvEvent",
    "SendEvent",
    "Trace",
    "TraceRecord",
    "benchmark",
    "binomial_broadcast",
    "bt",
    "cg",
    "check_trace_consistent",
    "contention_periods_of",
    "extract_pattern",
    "fft",
    "mg",
    "pairwise_exchange",
    "paper_sizes",
    "random_permutation_pattern",
    "read_trace",
    "recursive_halving_reduce",
    "shifted_all_to_all",
    "sp",
    "trace_program",
    "transpose_exchange",
    "write_trace",
]
