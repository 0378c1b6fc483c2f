"""Unit tests for memory request records."""

from repro.sim.request import AccessType, MemoryRequest


class TestAccessType:
    def test_read_flags(self):
        assert AccessType.READ.is_read
        assert not AccessType.READ.is_write

    def test_write_flags(self):
        assert AccessType.WRITE.is_write
        assert not AccessType.WRITE.is_read


class TestMemoryRequest:
    def test_defaults(self):
        request = MemoryRequest(address=0x1000)
        assert request.size == 128
        assert request.is_read
        assert request.physical_address is None

    def test_page_number(self):
        request = MemoryRequest(address=5 * 4096 + 123)
        assert request.page_number() == 5
        assert request.page_number(page_size=8192) == 2

    def test_line_address(self):
        request = MemoryRequest(address=1000)
        assert request.line_address(128) == 896

    def test_write_request(self):
        request = MemoryRequest(address=0, access=AccessType.WRITE)
        assert request.is_write

