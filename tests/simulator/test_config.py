"""Tests for simulation configuration."""

import pytest

from repro.errors import SimulationError
from repro.simulator import PAPER_CONFIG, SimConfig


class TestSimConfig:
    def test_paper_defaults(self):
        """Section 4.2: 32-bit flits at 800 MHz, 3 VCs, 10-cycle
        overheads."""
        assert PAPER_CONFIG.flit_bytes == 4
        assert PAPER_CONFIG.clock_mhz == 800.0
        assert PAPER_CONFIG.num_vcs == 3
        assert PAPER_CONFIG.send_overhead == 10
        assert PAPER_CONFIG.recv_overhead == 10

    def test_flits_for_includes_header(self):
        cfg = SimConfig(flit_bytes=4)
        assert cfg.flits_for(0) == 1  # header only
        assert cfg.flits_for(1) == 2
        assert cfg.flits_for(4) == 2
        assert cfg.flits_for(5) == 3
        assert cfg.flits_for(1024) == 257

    def test_flits_for_rejects_negative(self):
        with pytest.raises(SimulationError):
            SimConfig().flits_for(-1)

    def test_cycles_to_us(self):
        assert SimConfig(clock_mhz=800.0).cycles_to_us(800) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flit_bytes": 0},
            {"num_vcs": 0},
            {"vc_buffer_flits": 0},
            {"send_overhead": -1},
            {"deadlock_threshold": 0},
            {"max_cycles": 0},
            {"retransmit_backoff": -1},
            {"clock_mhz": 0},
            {"clock_mhz": -800.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            SimConfig(**kwargs)
