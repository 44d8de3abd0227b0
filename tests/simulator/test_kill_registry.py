"""The O(1) kill path: packet-indexed VC-assignment registry.

``Engine._kill_packet`` used to scan every input VC of every router to
find the victim's held resources; it now reads them straight from
``_vc_assignments``, a registry maintained where assignments are made
and cleared.  These tests prove the registry is *exact* — on every kill
it names precisely the assignments a full scan of every router's slot
table finds — and that kill/retransmit accounting (per-channel busy
cycles included) over deadlock and fault campaigns is identical to a
vendored full-scan implementation of the release.
"""

from repro.faults import FaultScenario, FaultState, LinkFault
from repro.simulator import Engine, SimConfig
from repro.simulator.simulation import routing_policy_for
from repro.topology import mesh


def _engine(*faults, top=None, **cfg_kw):
    top = top or mesh(2, 1)
    config = SimConfig(**cfg_kw)
    state = FaultState(top.network, FaultScenario.of(*faults)) if faults else None
    return Engine(top, routing_policy_for(top), config, fault_state=state)


def _scan_assignments(engine, packet_id):
    """The pre-registry full scan: every input VC whose assignment
    belongs to ``packet_id``."""
    held = set()
    for router in engine.routers.values():
        for _, _, ivc in router.slots:
            if ivc.assignment is not None and ivc.assignment[0] == packet_id:
                held.add(id(ivc))
    return held


def _checked_kills(engine):
    """Wrap ``_kill_packet`` to cross-check the registry against a full
    fabric scan on every kill; returns the list of kill records."""
    original = engine._kill_packet
    kills = []

    def checked(victim):
        scanned = _scan_assignments(engine, victim.packet_id)
        registered = set(engine._vc_assignments.get(victim.packet_id, {}))
        assert registered == scanned, (
            f"registry diverged for packet {victim.packet_id}: "
            f"registered {registered} vs scanned {scanned}"
        )
        original(victim)
        assert not _scan_assignments(engine, victim.packet_id)
        assert victim.packet_id not in engine._vc_assignments
        kills.append((victim.packet_id, len(scanned)))

    engine._kill_packet = checked
    return kills


def _full_scan_kill(engine):
    """Replace the registry release with the vendored pre-registry scan
    (the registry is still popped so it cannot silently assist)."""

    def kill(victim):
        victim.killed = True
        engine._vc_assignments.pop(victim.packet_id, None)
        for router in engine.routers.values():
            for _, _, ivc in router.slots:
                if ivc.assignment is not None and ivc.assignment[0] == victim.packet_id:
                    _, out_channel, out_vc = ivc.assignment
                    out_channel.owner[out_vc] = None
                    ivc.assignment = None
        nic = engine.nics[victim.source]
        held_vc = nic.abort_stream(victim.packet_id)
        if held_vc is not None:
            nic.inject_channel.owner[held_vc] = None
        engine._active_routers.update(engine.routers)
        engine._activate_nic(victim.source)

    engine._kill_packet = kill


def _block_ejection(engine, processor):
    ch = engine.channels[("ej", processor)]
    saved = list(ch.owner)
    ch.owner = [10**9] * len(ch.owner)
    return ch, saved


def _drive(engine, max_cycles=30_000):
    t = 0
    while engine.busy() and t < max_cycles:
        engine.step(t)
        t += 1
    return t


def _accounting(engine):
    return (
        engine.delivered_packets,
        engine.deadlocks_detected,
        engine.retransmissions,
        engine.fault_packet_kills,
        engine.flits_in_network,
        tuple(engine.packet_latencies),
        {cid: channel.busy_cycles for cid, channel in engine.channels.items()},
    )


class TestRegistryExactness:
    def test_deadlock_kills_match_full_scan(self):
        engine = _engine(deadlock_threshold=50)
        kills = _checked_kills(engine)
        ch, saved = _block_ejection(engine, 1)
        for seq in range(3):
            engine.submit(source=0, dest=1, size_bytes=40, inject_cycle=seq, seq=seq)
        t = 0
        while engine.deadlocks_detected < 3 and t < 20_000:
            engine.step(t)
            t += 1
        ch.owner = saved
        _drive(engine, max_cycles=40_000)
        assert len(kills) >= 3
        # At least one victim actually held router VC assignments, so
        # the exactness check exercised a non-empty registry entry.
        assert any(held > 0 for _, held in kills)
        assert engine.delivered_packets == 3

    def test_fault_kills_match_full_scan(self):
        engine = _engine(
            LinkFault(0, start=4, end=200), deadlock_threshold=100
        )
        kills = _checked_kills(engine)
        engine.submit(source=0, dest=1, size_bytes=400, inject_cycle=0, seq=0)
        _drive(engine)
        assert engine.fault_packet_kills >= 1
        assert len(kills) == engine.fault_packet_kills + engine.deadlocks_detected
        assert engine.delivered_packets == 1

    def test_released_resources_leave_no_residue(self):
        engine = _engine(LinkFault(0, start=4, end=200), deadlock_threshold=100)
        _checked_kills(engine)
        engine.submit(source=0, dest=1, size_bytes=400, inject_cycle=0, seq=0)
        _drive(engine)
        assert engine.flits_in_network == 0
        assert not engine._vc_assignments
        for ch in engine.channels.values():
            assert ch.credits == [ch.buffer_depth] * engine.config.num_vcs
            assert all(owner is None for owner in ch.owner)


class TestAccountingIdentity:
    """The registry-based release and the full fabric scan produce the
    same kill/retransmit accounting over whole campaigns."""

    def _campaign(self, use_full_scan):
        engine = _engine(
            LinkFault(0, start=10, end=400),
            LinkFault(1, start=600, end=900),
            top=mesh(2, 2),
            deadlock_threshold=80,
        )
        if use_full_scan:
            _full_scan_kill(engine)
        for seq in range(6):
            engine.submit(source=0, dest=3, size_bytes=200, inject_cycle=seq * 3, seq=seq)
            engine.submit(source=3, dest=0, size_bytes=200, inject_cycle=seq * 3, seq=seq)
        _drive(engine, max_cycles=60_000)
        return _accounting(engine)

    def test_fault_campaign_accounting_identical(self):
        registry = self._campaign(use_full_scan=False)
        scan = self._campaign(use_full_scan=True)
        assert registry == scan
        delivered = registry[0]
        assert delivered == 12
        kills = registry[1] + registry[3]
        assert kills >= 1  # the campaign really exercised the kill path

    def test_deadlock_campaign_accounting_identical(self):
        def run(use_full_scan):
            engine = _engine(deadlock_threshold=50)
            if use_full_scan:
                _full_scan_kill(engine)
            ch, saved = _block_ejection(engine, 1)
            for seq in range(4):
                engine.submit(source=0, dest=1, size_bytes=40, inject_cycle=seq, seq=seq)
            t = 0
            while engine.deadlocks_detected < 4 and t < 20_000:
                engine.step(t)
                t += 1
            ch.owner = saved
            _drive(engine, max_cycles=40_000)
            return _accounting(engine)

        registry = run(use_full_scan=False)
        scan = run(use_full_scan=True)
        assert registry == scan
        assert registry[1] >= 4  # deadlocks detected
        assert registry[0] == 4  # all eventually delivered
