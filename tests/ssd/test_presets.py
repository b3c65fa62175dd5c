"""Device presets resolve cleanly through the policy tables."""

import pytest

from repro.ssd.policy import POLICIES
from repro.ssd.presets import PRESETS


class TestPresetPolicyResolution:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_knob_is_registered(self, name):
        """Each preset's policy strings exist in the tables — a preset
        can never name a policy the FTL cannot build."""
        config = PRESETS[name](scale=2)
        for knob, table in POLICIES.items():
            value = getattr(config, knob)
            assert value in table, (name, knob, value)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_devices_construct(self, name):
        """Presets build a working FTL end to end (policies included)."""
        from repro.ssd.ftl import Ftl

        ftl = Ftl(PRESETS[name](scale=4))
        assert ftl.selector.policy == PRESETS[name](scale=4).gc_policy

    def test_unknown_policy_in_derived_config_fails_clearly(self):
        config = PRESETS["tiny"]()
        with pytest.raises(ValueError) as excinfo:
            config.with_changes(gc_policy="quantum")
        message = str(excinfo.value)
        assert "unknown gc_policy 'quantum'" in message
        assert "greedy" in message  # valid choices are listed

    def test_unknown_eviction_fails_clearly(self):
        config = PRESETS["tiny"]()
        with pytest.raises(ValueError, match="valid choices"):
            config.with_changes(cache_eviction="mru")
