"""The one controller-memory service path of GDDR5, Hetero and Optane."""

import pytest

from repro.gpu.memory_controller import MemoryControllerArray
from repro.platforms import build_platform
from repro.platforms.gddr5 import ControllerMemoryPlatform, GDDR5Platform

# platform -> (its technology's attribute, its breakdown key, its bandwidth extra)
CONTROLLER_PLATFORMS = {
    "GDDR5": ("dram", "dram", "dram_bandwidth_gbps"),
    "Hetero": ("dram", "dram", None),
    "Optane": ("optane", "optane", "optane_bandwidth_gbps"),
}
NAMES = list(CONTROLLER_PLATFORMS)


class TestControllerMemoryPlatform:
    @pytest.mark.parametrize("name", NAMES)
    def test_memory_is_the_technology_array(self, name):
        platform = build_platform(name)
        attribute, component, _ = CONTROLLER_PLATFORMS[name]
        assert isinstance(platform, ControllerMemoryPlatform)
        assert isinstance(platform.memory, MemoryControllerArray)
        assert getattr(platform, attribute) is platform.memory
        assert platform.component == component

    def test_optane_is_not_a_gddr5_platform(self):
        assert not isinstance(build_platform("Optane"), GDDR5Platform)
        assert isinstance(build_platform("Hetero"), GDDR5Platform)

    @pytest.mark.parametrize("name", NAMES)
    def test_misses_are_charged_to_the_component(self, name, tiny_mix):
        platform = build_platform(name)
        result = platform.run(tiny_mix.combined)
        component = CONTROLLER_PLATFORMS[name][1]
        other = {"dram": "optane", "optane": "dram"}[component]
        assert result.latency_breakdown[component] > 0
        assert other not in result.latency_breakdown
        assert platform.memory.bytes_transferred > 0

    @pytest.mark.parametrize("name", NAMES)
    def test_bandwidth_extra_reads_the_controllers(self, name, tiny_mix):
        platform = build_platform(name)
        result = platform.run(tiny_mix.combined)
        extra = CONTROLLER_PLATFORMS[name][2]
        if extra is None:
            assert not [k for k in result.extra if k.endswith("_bandwidth_gbps")]
        else:
            achieved = platform.memory.achieved_bandwidth_bytes_per_s(result.cycles)
            assert result.extra[extra] == achieved / 1e9 > 0

    @pytest.mark.parametrize("name", NAMES)
    def test_request_path_looks_up_access_at_call_time(self, name, tiny_mix):
        """A wrap of ``memory.access`` made after construction sees every
        request, and the run is the same as without it."""
        reference = build_platform(name).run(tiny_mix.combined)
        platform = build_platform(name)
        calls = []
        access = platform.memory.access

        def counted(*args):
            calls.append(args)
            return access(*args)

        platform.memory.access = counted
        result = platform.run(tiny_mix.combined)
        assert len(calls) == sum(c.requests_served for c in platform.memory.channels) > 0
        assert result.to_record() == reference.to_record()
