"""Simulation parameters (paper Section 4.2).

Defaults follow the paper's setup: 32-bit flits and links at 800 MHz
(the Alpha 21364 on-chip router parameters), 3 virtual channels per
physical link, ten-cycle send and receive overheads (the LogP-style
overhead of [23]), link delay equal to length in tiles with a minimum
of one clock, and deadlock handling by detection and regressive
recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the flit-level simulator.

    Attributes:
        flit_bytes: bytes per flit (32-bit links -> 4).
        clock_mhz: link clock, used only to convert cycles to seconds in
            reports; the simulator itself works in cycles.
        num_vcs: virtual channels per physical channel.
        vc_buffer_flits: buffer depth per virtual channel.
        send_overhead: processor cycles consumed by each send call.
        recv_overhead: processor cycles consumed after each message
            arrival.
        deadlock_threshold: cycles without any flit movement (while
            traffic is in flight) before the deadlock detector triggers
            regressive recovery.
        retransmit_backoff: cycles a killed packet waits before its
            source re-injects it.
        max_cycles: hard stop; exceeding it raises
            :class:`~repro.errors.SimulationError`.
    """

    flit_bytes: int = 4
    clock_mhz: float = 800.0
    num_vcs: int = 3
    vc_buffer_flits: int = 4
    send_overhead: int = 10
    recv_overhead: int = 10
    deadlock_threshold: int = 4000
    retransmit_backoff: int = 32
    max_cycles: int = 50_000_000

    def __post_init__(self) -> None:
        if self.flit_bytes < 1:
            raise SimulationError(f"flit_bytes must be positive, got {self.flit_bytes}")
        if self.num_vcs < 1:
            raise SimulationError(f"need at least one VC, got {self.num_vcs}")
        if self.vc_buffer_flits < 1:
            raise SimulationError("vc_buffer_flits must be positive")
        if self.send_overhead < 0 or self.recv_overhead < 0:
            raise SimulationError("overheads cannot be negative")
        if self.deadlock_threshold < 1:
            raise SimulationError("deadlock_threshold must be positive")
        if self.retransmit_backoff < 0:
            # A retransmission must not inject before the kill it repairs.
            raise SimulationError(
                f"retransmit_backoff cannot be negative, got {self.retransmit_backoff}"
            )
        if not self.clock_mhz > 0:
            raise SimulationError(f"clock_mhz must be positive, got {self.clock_mhz}")
        if self.max_cycles < 1:
            raise SimulationError("max_cycles must be positive")

    def flits_for(self, size_bytes: int) -> int:
        """Flits of a packet: one header flit plus the payload."""
        if size_bytes < 0:
            raise SimulationError(f"negative message size {size_bytes}")
        payload = (size_bytes + self.flit_bytes - 1) // self.flit_bytes
        return 1 + payload

    def cycles_to_us(self, cycles: int) -> float:
        """Convert a cycle count to microseconds at the configured clock."""
        return cycles / self.clock_mhz


# The parameters used throughout the paper's evaluation.
PAPER_CONFIG = SimConfig()
