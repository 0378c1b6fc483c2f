"""Unit tests for the GPU interconnect network."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GPUConfig
from repro.gpu.interconnect import Interconnect


class TestInterconnect:
    def test_send_adds_latency(self):
        noc = Interconnect(GPUConfig(), num_destinations=6)
        arrival = noc.send(destination=0, num_bytes=128, now=0.0)
        assert arrival >= GPUConfig().noc_latency_cycles

    def test_traffic_statistics(self):
        noc = Interconnect(GPUConfig(), num_destinations=4)
        noc.send(0, 128, 0.0)
        noc.send(1, 256, 0.0)
        assert noc.packets == 2
        assert noc.bytes_moved == 384

    def test_destination_striping(self):
        noc = Interconnect(GPUConfig(), num_destinations=4)
        for destination in (1, 5, 0):
            noc.send(destination, 128, 0.0)
        assert [link.requests_served for link in noc.links] == [1, 2, 0, 0]

    def test_contention_on_same_link(self):
        noc = Interconnect(GPUConfig(), num_destinations=2)
        first = noc.send(0, 4096, 0.0)
        second = noc.send(0, 4096, 0.0)
        assert second > first

    def test_invalid_destination_count(self):
        with pytest.raises(ValueError):
            Interconnect(GPUConfig(), num_destinations=0)

    def test_reset(self):
        noc = Interconnect(GPUConfig(), num_destinations=2)
        noc.send(0, 128, 0.0)
        noc.reset()
        assert noc.packets == 0
        assert noc.bytes_moved == 0

    def test_bad_byte_count_rejected_without_booking(self):
        noc = Interconnect(GPUConfig(), num_destinations=2)
        for num_bytes in (-10**6, math.nan):
            with pytest.raises(ValueError):
                noc.send(0, num_bytes, 0.0)
        assert noc.packets == 0
        assert noc.links.requests_served == 0
        assert noc.links.last_completion == 0.0


def link_state(noc):
    return [(link.busy_cycles, link.wait_cycles, link.requests_served,
             link.last_completion, link.bytes_transferred) for link in noc.links]


class TestInlineSendMatchesTransfer:
    @given(destinations=st.integers(1, 4),
           bandwidth=st.sampled_from([1.0, 3.0, 7.5, 768.0]),
           sends=st.lists(st.tuples(st.integers(0, 7), st.sampled_from([0, 32, 128, 4096]),
                                    st.floats(0.0, 500.0)),
                          min_size=1, max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_same_arrivals_and_counters(self, destinations, bandwidth, sends):
        config = replace(GPUConfig(), noc_bytes_per_cycle=bandwidth * destinations)
        inline = Interconnect(config, num_destinations=destinations)
        reference = Interconnect(config, num_destinations=destinations)
        packets = bytes_moved = 0
        for destination, num_bytes, now in sends:
            arrival = inline.send(destination, num_bytes, now)
            packets += 1
            bytes_moved += num_bytes
            assert arrival == reference.links[destination].transfer(now, num_bytes)
            # The traffic totals, computed from the links, count every send.
            assert (inline.packets, inline.bytes_moved) == (packets, bytes_moved)
            assert link_state(inline) == link_state(reference)
