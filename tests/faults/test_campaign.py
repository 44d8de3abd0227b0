"""Campaign generation: enumeration order, doubles, seeded sampling."""

import pytest

from repro.errors import FaultError
from repro.faults import (
    CampaignSpec,
    LinkFault,
    SwitchFault,
    build_campaign,
)
from repro.topology import mesh


NET = mesh(2, 2).network  # 4 switches, 4 links


class TestSpecValidation:
    def test_empty_kinds_rejected(self):
        with pytest.raises(FaultError):
            CampaignSpec(kinds=())

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            CampaignSpec(kinds=("link", "router"))

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(FaultError):
            CampaignSpec(max_scenarios=0)


class TestEnumeration:
    def test_one_scenario_per_link(self):
        scenarios = build_campaign(NET, CampaignSpec(kinds=("link",)))
        assert len(scenarios) == len(NET.links)
        assert [s.faults for s in scenarios] == [
            (LinkFault(link.link_id),) for link in NET.links
        ]

    def test_one_scenario_per_switch(self):
        scenarios = build_campaign(NET, CampaignSpec(kinds=("switch",)))
        assert [s.faults for s in scenarios] == [
            (SwitchFault(s),) for s in NET.switches
        ]

    def test_build_campaign_defaults_to_single_link(self):
        assert build_campaign(NET) == build_campaign(NET, CampaignSpec(kinds=("link",)))

    def test_both_kinds_links_first(self):
        campaign = build_campaign(NET, CampaignSpec(kinds=("link", "switch")))
        assert len(campaign) == len(NET.links) + len(NET.switches)
        assert all(s.permanent_link_ids for s in campaign[: len(NET.links)])
        assert all(s.permanent_switch_ids for s in campaign[len(NET.links) :])

    def test_window_propagates(self):
        campaign = build_campaign(NET, CampaignSpec(start=10, end=20))
        assert all(f == LinkFault(f.link_id, 10, 20) for s in campaign for f in s.faults)
        assert all(s.has_transient for s in campaign)


class TestDoubles:
    def test_double_adds_every_pair(self):
        n = len(NET.links)
        campaign = build_campaign(NET, CampaignSpec(double=True))
        assert len(campaign) == n + n * (n - 1) // 2
        singles, doubles = campaign[:n], campaign[n:]
        assert all(s.num_faults == 1 for s in singles)
        assert all(s.num_faults == 2 for s in doubles)
        # Unordered pairs, no self-pairs.
        pairs = {
            tuple(sorted(f.link_id for f in s.faults)) for s in doubles
        }
        assert len(pairs) == len(doubles)
        assert all(a != b for a, b in pairs)


class TestSampling:
    def test_cap_keeps_enumeration_order(self):
        full = build_campaign(NET, CampaignSpec(double=True))
        capped = build_campaign(NET, CampaignSpec(double=True, max_scenarios=4))
        assert len(capped) == 4
        positions = [full.index(s) for s in capped]
        assert positions == sorted(positions)

    def test_sampling_is_seed_deterministic(self):
        a = build_campaign(NET, CampaignSpec(double=True, max_scenarios=4, seed=7))
        b = build_campaign(NET, CampaignSpec(double=True, max_scenarios=4, seed=7))
        c = build_campaign(NET, CampaignSpec(double=True, max_scenarios=4, seed=8))
        assert a == b
        assert a != c

    def test_cap_above_size_is_noop(self):
        campaign = build_campaign(NET, CampaignSpec(max_scenarios=1000))
        assert campaign == build_campaign(NET)
