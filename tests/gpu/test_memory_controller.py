"""Unit tests for the memory controller array and Optane controllers."""

import pytest

from repro.config import OptaneConfig
from repro.gpu.memory_controller import MemoryControllerArray, build_optane_controllers


class TestMemoryControllerArray:
    def make(self, controllers=2):
        return MemoryControllerArray(
            name="mc",
            controllers=controllers,
            bytes_per_cycle_per_controller=8.0,
            fixed_latency_cycles=100.0,
            write_latency_cycles=300.0,
        )

    def test_read_latency_floor(self):
        array = self.make()
        completion = array.access(0, 128, is_write=False, now=0.0)
        assert completion >= 100.0 + 128 / 8.0

    def test_write_uses_write_latency(self):
        array = self.make()
        read = array.access(0, 128, is_write=False, now=0.0)
        write = array.access(1 << 20, 128, is_write=True, now=0.0)
        assert write > read

    def test_striping_across_controllers(self):
        array = self.make(controllers=2)
        for address in (0, 255, 256, 512):
            array.access(address, 128, is_write=False, now=0.0)
        assert [c.requests_served for c in array.channels] == [3, 1]

    def test_bytes_accounted(self):
        array = self.make()
        array.access(0, 128, is_write=False, now=0.0)
        array.access(256, 128, is_write=False, now=0.0)
        assert array.bytes_transferred == 256

    def test_invalid_controllers(self):
        with pytest.raises(ValueError):
            MemoryControllerArray("bad", 0, 1.0, 1.0)


class TestOptaneControllers:
    def test_build_from_config(self):
        config = OptaneConfig()
        array = build_optane_controllers(config)
        assert array.controllers == 6

    def test_write_slower_than_read(self):
        config = OptaneConfig()
        array = build_optane_controllers(config)
        read = array.access(0, 256, is_write=False, now=0.0)
        write = array.access(1 << 20, 256, is_write=True, now=0.0)
        assert write > read
