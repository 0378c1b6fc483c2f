"""Unit and property tests for the flash geometry / address decomposition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ZNANDConfig
from repro.ssd.geometry import FlashGeometry, FlashLocation


def small_geometry():
    return FlashGeometry(
        ZNANDConfig(
            channels=4, dies_per_package=2, planes_per_die=2,
            blocks_per_plane=8, pages_per_block=4,
        )
    )


def full_geometry():
    return FlashGeometry(ZNANDConfig())


def compose(geom, location):
    """Reference inverse of ``FlashGeometry.decompose``: channel-first
    striping, then die, plane, page and block."""
    remainder = location.block * geom.pages_per_block + location.page
    remainder = remainder * geom.planes_per_die + location.plane
    remainder = remainder * geom.dies_per_channel + location.die
    return remainder * geom.channels + location.channel


class TestCapacity:
    def test_total_planes(self):
        geom = full_geometry()
        assert geom.total_planes == 16 * 8 * 8  # channels x dies x planes

    def test_total_capacity(self):
        geom = full_geometry()
        assert geom.capacity_bytes == geom.total_pages * geom.page_size_bytes

    def test_small_geometry_planes(self):
        geom = small_geometry()
        assert geom.total_planes == 4 * 2 * 2


class TestDecomposition:
    def test_ppn_zero(self):
        geom = small_geometry()
        loc = geom.decompose(0)
        assert loc == FlashLocation(0, 0, 0, 0, 0)

    def test_consecutive_ppns_stripe_channels(self):
        geom = small_geometry()
        assert geom.decompose(0).channel == 0
        assert geom.decompose(1).channel == 1
        assert geom.decompose(geom.channels).channel == 0

    def test_out_of_range_rejected(self):
        geom = small_geometry()
        with pytest.raises(ValueError):
            geom.decompose(geom.total_pages)
        with pytest.raises(ValueError):
            geom.decompose(-1)

    def test_plane_id_range(self):
        geom = small_geometry()
        ids = {geom.plane_of_ppn(ppn) for ppn in range(geom.total_pages)}
        assert ids == set(range(geom.total_planes))

    def test_channel_of_ppn(self):
        geom = small_geometry()
        assert geom.channel_of_ppn(5) == 5 % geom.channels


class TestRoundTrips:
    @given(ppn=st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_compose_decompose_identity(self, ppn):
        geom = small_geometry()
        ppn = ppn % geom.total_pages
        assert compose(geom, geom.decompose(ppn)) == ppn

    @given(ppn=st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_ppn_of_matches_decompose(self, ppn):
        geom = small_geometry()
        ppn = ppn % geom.total_pages
        loc = geom.decompose(ppn)
        plane_id = geom.plane_id(loc)
        assert geom.ppn_of(plane_id, loc.block, loc.page) == ppn

    @given(
        plane=st.integers(min_value=0, max_value=15),
        block=st.integers(min_value=0, max_value=7),
        page=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_block_id_consistent(self, plane, block, page):
        geom = small_geometry()
        ppn = geom.ppn_of(plane, block, page)
        loc = geom.decompose(ppn)
        assert geom.plane_id(loc) == plane
        assert loc.block == block
        assert loc.page == page
