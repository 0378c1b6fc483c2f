"""Tests for the analytic-vs-measured validation helpers."""

import math

import pytest

from repro.analysis import validation
from repro.config import default_config


class TestAnalyticModels:
    def test_accumulated_exceeds_single_plane(self):
        single = validation.analytic_plane_read_bandwidth()
        accumulated = default_config().znand.accumulated_read_bandwidth_bytes_per_s
        assert accumulated > single

    def test_mesh_wider_than_bus(self):
        assert (
            validation.analytic_mesh_link_bandwidth()
            > validation.analytic_bus_link_bandwidth()
        )


class TestMeasurements:
    def test_mesh_channel_matches_analytic(self):
        analytic = validation.analytic_mesh_link_bandwidth()
        measured = validation.measure_single_channel_bandwidth("mesh")
        assert abs(measured - analytic) / analytic < 0.1

    def test_bus_channel_matches_analytic(self):
        analytic = validation.analytic_bus_link_bandwidth()
        measured = validation.measure_single_channel_bandwidth("bus")
        assert abs(measured - analytic) / analytic < 0.1

    def test_plane_bandwidth_matches_analytic(self):
        analytic = validation.analytic_plane_read_bandwidth()
        measured = validation.measure_single_plane_bandwidth()
        assert abs(measured - analytic) / analytic < 0.1


class TestValidateAll:
    def test_all_within_tolerance(self):
        results = validation.validate_all()
        for result in results.values():
            assert result.within(0.1), f"{result.name}: {result.relative_error:.2%}"

    def test_result_relative_error(self):
        result = validation.ValidationResult("x", analytic=100.0, measured=110.0)
        assert result.relative_error == pytest.approx(0.1)
        assert result.within(0.2)
        assert not result.within(0.05)

    def test_zero_analytic_mismatch_is_not_a_perfect_match(self):
        # A model that predicts 0 but measures 5 used to report 0.0 relative
        # error and pass every tolerance; it must fail all of them instead.
        result = validation.ValidationResult("x", analytic=0.0, measured=5.0)
        assert result.relative_error == math.inf
        assert not result.within(0.5)
        assert not result.within(1e9)

    def test_zero_analytic_zero_measured_agrees(self):
        result = validation.ValidationResult("x", analytic=0.0, measured=0.0)
        assert result.relative_error == 0.0
        assert result.within(0.0)
