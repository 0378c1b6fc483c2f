"""Unit tests for the Z-NAND endurance / lifetime model."""

import pytest

from repro.config import ZNANDConfig
from repro.ssd.endurance import EnduranceModel, EnduranceReport
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.ftl_firmware import PageMappedFTL
from repro.ssd.znand import ZNANDArray


def make_model():
    config = ZNANDConfig(
        channels=2, dies_per_package=1, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=4,
    )
    array = ZNANDArray(config, network=FlashNetwork(config, "mesh"))
    return EnduranceModel(array, config), array, config


class TestEnduranceReport:
    def test_fresh_device(self):
        model, _, config = make_model()
        report = model.report()
        assert report.pe_cycle_limit == config.pe_cycle_limit
        assert report.max_erase_count == 0
        assert report.wear_fraction == 0.0
        assert report.remaining_pe_cycles == config.pe_cycle_limit

    def test_write_amplification(self):
        model, array, _ = make_model()
        model.record_host_writes(4)
        for ppn in range(8):
            array.program_page(ppn, now=0.0)
        report = model.report()
        # 8 programs for 4 host writes => WAF 2.
        assert report.write_amplification == pytest.approx(2.0)

    def test_wear_fraction_tracks_erases(self):
        model, array, config = make_model()
        for _ in range(10):
            array.erase_block(0, 0, now=0.0)
        report = model.report()
        assert report.max_erase_count == 10
        assert report.wear_fraction == pytest.approx(10 / config.pe_cycle_limit)

    def test_host_writes_accumulate(self):
        model, _, _ = make_model()
        model.record_host_writes(3)
        model.record_host_writes(4)
        assert model.report().host_writes == 7

    def test_write_amplification_without_host_writes_is_zero(self):
        model, array, _ = make_model()
        array.program_page(0, now=0.0)
        assert model.report().write_amplification == 0.0

    def test_remaining_cycles_never_go_negative(self):
        report = EnduranceReport(pe_cycle_limit=5, max_erase_count=7, total_erases=7,
                                 total_programs=0, host_writes=0)
        assert report.remaining_pe_cycles == 0
        assert report.wear_fraction == pytest.approx(7 / 5)

    def test_zero_limit_reports_no_wear(self):
        report = EnduranceReport(pe_cycle_limit=0, max_erase_count=3, total_erases=3,
                                 total_programs=0, host_writes=0)
        assert report.wear_fraction == 0.0


class TestLifetime:
    def test_infinite_without_writes(self):
        model, _, _ = make_model()
        assert model.estimate_lifetime_days(0.0, 1.0) == float("inf")

    def test_infinite_without_observation(self):
        model, _, _ = make_model()
        assert model.estimate_lifetime_days(1e3, 0.0) == float("inf")

    def test_write_through_lifetime_spreads_erases_over_every_block(self):
        model, array, config = make_model()
        # No programs observed: write amplification counts as 1.
        rate = 1e3
        erases_per_s = rate / config.pages_per_block / array.geometry.total_blocks
        expected_days = config.pe_cycle_limit / erases_per_s / 86400.0
        assert model.estimate_lifetime_days(rate, 1.0) == pytest.approx(expected_days)

    def test_write_amplification_shortens_life_in_proportion(self):
        model, array, _ = make_model()
        baseline = model.estimate_lifetime_days(1e3, 1.0)
        model.record_host_writes(4)
        for ppn in range(8):
            array.program_page(ppn, now=0.0)
        assert model.estimate_lifetime_days(1e3, 1.0) == pytest.approx(baseline / 2)

    def test_higher_write_rate_shortens_life(self):
        model, array, _ = make_model()
        model.record_host_writes(100)
        for ppn in range(100):
            array.program_page(ppn % array.geometry.total_pages, now=0.0)
        slow = model.estimate_lifetime_days(1e3, 1.0)
        fast = model.estimate_lifetime_days(1e6, 1.0)
        assert fast < slow


class TestEnduranceGain:
    def test_buffering_extends_endurance(self):
        model, _, _ = make_model()
        # 1000 host writes absorbed into 100 flash programs => 11x endurance.
        gain = model.endurance_gain_from_buffering(writes_absorbed=900, writes_programmed=100)
        assert gain == pytest.approx(10.0)

    def test_nothing_absorbed_is_no_gain(self):
        model, _, _ = make_model()
        assert model.endurance_gain_from_buffering(0, 100) == pytest.approx(1.0)

    def test_no_programs_is_infinite(self):
        model, _, _ = make_model()
        assert model.endurance_gain_from_buffering(100, 0) == float("inf")
