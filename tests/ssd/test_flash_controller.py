"""Unit tests for flash controllers and the controller array."""

import pytest
from hypothesis import given, settings, strategies as st

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


def booking_state(resource):
    return (resource.busy_cycles, resource.wait_cycles, resource.requests_served,
            resource.last_completion)


def reference_read(controller, ppn, now, transfer_bytes):
    """``FlashController.read`` and ``ZNANDArray.read_page`` with their
    dispatcher and plane booked through ``Resource.acquire``."""
    array = controller.array
    start = controller.dispatcher.acquire(now, controller.DISPATCH_OCCUPANCY_CYCLES)
    controller.commands_issued += 1
    issued = start + controller.DECODE_LATENCY_CYCLES
    plane_id = array.geometry.plane_of_ppn(ppn)
    cycles = array.read_array_cycles
    sensed = array.planes[plane_id].acquire(issued, cycles) + cycles
    completion = array.network.transfer(
        ppn % array.config.channels, transfer_bytes or array.config.page_size_bytes,
        sensed)
    array.reads_per_plane[plane_id] += 1
    return sensed, completion


def read_state(controllers):
    array = controllers.array
    return ([booking_state(c.dispatcher) for c in controllers.controllers],
            {plane.name: booking_state(plane) for plane in array.planes},
            [booking_state(link) + (link.bytes_transferred,)
             for link in array.network.links],
            controllers.commands_issued, list(array.reads_per_plane))


class TestInPlaceBookingsMatchAcquire:
    @given(reads=st.lists(
        st.tuples(st.integers(0, 63), st.sampled_from([0.0, 0.0, 3.0, 40.0, -25.0]),
                  st.sampled_from([None, 128, 512])),
        min_size=1, max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_same_cycles_and_resource_state(self, reads):
        # Reads arrive out of order (negative advances) and share planes, so
        # the dispatchers and planes both queue and idle.
        inline, reference = (FlashControllerArray(small_array()) for _ in range(2))
        now = 100.0
        page_reads = 0
        for ppn, advance, transfer_bytes in reads:
            now += advance
            controller = reference.controllers[ppn % len(reference)]
            assert (inline.read(ppn, now, transfer_bytes)
                    == reference_read(controller, ppn, now, transfer_bytes))
            assert read_state(inline) == read_state(reference)
            # The read totals, computed from the per-plane counts, count
            # every read.
            page_reads += 1
            array = inline.array
            assert array.page_reads == page_reads
            assert array.bytes_read_from_array == page_reads * array.config.page_size_bytes
