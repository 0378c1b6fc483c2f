"""Unit tests for the access direction of trace instructions."""

from repro.sim.request import AccessType


class TestAccessType:
    def test_read_flags(self):
        assert AccessType.READ.is_read
        assert not AccessType.READ.is_write

    def test_write_flags(self):
        assert AccessType.WRITE.is_write
        assert not AccessType.WRITE.is_read

