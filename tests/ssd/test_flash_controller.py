"""Unit tests for flash controllers and the controller array."""

import pytest

from repro.config import ZNANDConfig
from repro.ssd.flash_controller import FlashController, FlashControllerArray
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.znand import ZNANDArray


def small_array():
    config = ZNANDConfig(
        channels=4, dies_per_package=2, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=4,
    )
    return ZNANDArray(config, network=FlashNetwork(config, "mesh"))


class TestFlashController:
    def test_read_issues_command(self):
        array = small_array()
        controller = FlashController(channel=0, array=array)
        sensed, completion = controller.read(0, now=0.0)
        assert completion > sensed > 0.0
        assert controller.commands_issued == 1

    def test_program_issues_command(self):
        array = small_array()
        controller = FlashController(channel=0, array=array)
        transferred, completion = controller.program(0, now=0.0)
        assert array.page_programs == 1
        assert completion > transferred > 0.0

    def test_dispatcher_serializes(self):
        array = small_array()
        controller = FlashController(channel=0, array=array)
        first_sensed, _ = controller.read(0, now=0.0)
        second_sensed, _ = controller.read(array.geometry.ppn_of(1, 0, 0), now=0.0)
        # Both go through the same per-channel dispatcher, so the second
        # (on another plane) is dispatched one occupancy later.
        assert second_sensed - first_sensed >= controller.DISPATCH_OCCUPANCY_CYCLES


class TestFlashControllerArray:
    def test_routes_by_channel(self):
        array = small_array()
        controllers = FlashControllerArray(array)
        assert len(controllers) == 4
        controller = controllers.controller_for_ppn(1)
        assert controller.channel == array.geometry.channel_of_ppn(1)

    def test_read_and_program(self):
        array = small_array()
        controllers = FlashControllerArray(array)
        controllers.read(0, now=0.0)
        controllers.program(1, now=0.0)
        assert controllers.commands_issued == 2

    def test_reset(self):
        array = small_array()
        controllers = FlashControllerArray(array)
        controllers.read(0, now=0.0)
        controllers.reset()
        assert controllers.commands_issued == 0
